//! Minimal, hand-rolled HTTP/1.1 for the serving front-end.
//!
//! Scope is deliberately narrow: enough of RFC 9112 to speak to `curl`
//! and load-balancer health checks — request line, headers,
//! `Content-Length` bodies, keep-alive. No chunked encoding, no
//! trailers, no continuation lines. Anything outside that subset gets a
//! precise 4xx instead of silent misbehaviour.
//!
//! The parser is *resumable*: [`read_request`] appends onto a
//! caller-owned buffer and distinguishes "need more bytes" (a read
//! timeout while the server checks its shutdown flag) from "this will
//! never parse". That lets connection threads use short socket timeouts
//! for drain responsiveness without corrupting a half-received request,
//! and makes pipelined requests fall out naturally: leftover bytes stay
//! in the buffer for the next call.

use std::fmt;
use std::io::{self, Read, Write};

/// Hard ceilings on what a connection may send.
///
/// Both limits exist so that a misbehaving (or malicious) client costs
/// a bounded amount of memory before being rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireLimits {
    /// Maximum bytes of request line + headers (until `\r\n\r\n`).
    pub max_head_bytes: usize,
    /// Maximum `Content-Length` accepted for a body.
    pub max_body_bytes: usize,
}

impl Default for WireLimits {
    fn default() -> Self {
        WireLimits {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// A parsed HTTP request: the subset the server routes on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Request target path, without query string.
    pub path: String,
    /// Raw query string (after `?`), empty if absent.
    pub query: String,
    /// Body bytes (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

/// Why a byte stream failed to parse as an acceptable request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Request line is not `METHOD SP TARGET SP HTTP/1.x`.
    BadRequestLine,
    /// A header line has no `:` separator.
    BadHeader,
    /// `Content-Length` is not a decimal integer.
    BadContentLength,
    /// Head grew past [`WireLimits::max_head_bytes`].
    HeadTooLarge,
    /// Declared body exceeds [`WireLimits::max_body_bytes`].
    BodyTooLarge,
    /// HTTP version other than 1.0/1.1.
    UnsupportedVersion,
    /// `Transfer-Encoding` was sent; this server only does lengths.
    UnsupportedTransferEncoding,
    /// The peer closed mid-request (empty buffer ⇒ clean close).
    ConnectionClosed,
}

impl ParseError {
    /// The HTTP status code a server should answer this failure with.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::HeadTooLarge => 431,
            ParseError::BodyTooLarge => 413,
            ParseError::UnsupportedVersion => 505,
            ParseError::UnsupportedTransferEncoding => 501,
            _ => 400,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            ParseError::BadRequestLine => "malformed request line",
            ParseError::BadHeader => "malformed header line",
            ParseError::BadContentLength => "unparseable Content-Length",
            ParseError::HeadTooLarge => "request head too large",
            ParseError::BodyTooLarge => "request body too large",
            ParseError::UnsupportedVersion => "unsupported HTTP version",
            ParseError::UnsupportedTransferEncoding => {
                "Transfer-Encoding not supported (use Content-Length)"
            }
            ParseError::ConnectionClosed => "connection closed mid-request",
        };
        f.write_str(msg)
    }
}

/// Outcome of one [`read_request`] attempt.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request was parsed; its bytes were consumed from the
    /// buffer (pipelined followers remain).
    Ready(Request),
    /// The socket timed out before a full request arrived; the partial
    /// bytes stay buffered — call again.
    NeedMore,
    /// The peer closed with an empty buffer: a clean end of connection.
    Closed,
    /// The stream can never parse (or hit a limit); answer with
    /// [`ParseError::status`] and close.
    Bad(ParseError),
    /// A socket error other than timeout.
    Io(io::Error),
}

/// Try to parse one request out of `buf`, reading from `reader` as
/// needed. `buf` persists across calls on the same connection.
pub fn read_request<R: Read>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    limits: &WireLimits,
) -> ReadOutcome {
    let mut chunk = [0u8; 4096];
    loop {
        // Try to parse what we already have before blocking on the socket.
        match try_parse(buf, limits) {
            Ok(Some((req, consumed))) => {
                buf.drain(..consumed);
                return ReadOutcome::Ready(req);
            }
            Ok(None) => {}
            Err(e) => return ReadOutcome::Bad(e),
        }
        match reader.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Bad(ParseError::ConnectionClosed)
                };
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return ReadOutcome::NeedMore;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return ReadOutcome::Io(e),
        }
    }
}

/// Parse a complete request from the front of `buf`, if one is there.
/// Returns the request plus the number of bytes it occupied.
fn try_parse(buf: &[u8], limits: &WireLimits) -> Result<Option<(Request, usize)>, ParseError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > limits.max_head_bytes {
            return Err(ParseError::HeadTooLarge);
        }
        return Ok(None);
    };
    if head_end > limits.max_head_bytes {
        return Err(ParseError::HeadTooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| ParseError::BadRequestLine)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(ParseError::BadRequestLine)?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(ParseError::BadRequestLine)?;
    let target = parts
        .next()
        .filter(|t| !t.is_empty())
        .ok_or(ParseError::BadRequestLine)?;
    let version = parts.next().ok_or(ParseError::BadRequestLine)?;
    if parts.next().is_some() {
        return Err(ParseError::BadRequestLine);
    }
    let keep_alive_default = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(ParseError::UnsupportedVersion),
    };

    let mut content_length = 0usize;
    let mut keep_alive = keep_alive_default;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or(ParseError::BadHeader)?;
        let name = name.trim();
        let value = value.trim();
        if name.is_empty() {
            return Err(ParseError::BadHeader);
        }
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| ParseError::BadContentLength)?;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(ParseError::UnsupportedTransferEncoding);
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    if content_length > limits.max_body_bytes {
        return Err(ParseError::BodyTooLarge);
    }
    let total = head_end + 4 + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    let body = buf[head_end + 4..total].to_vec();
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Ok(Some((
        Request {
            method: method.to_string(),
            path,
            query,
            body,
            keep_alive,
        },
        total,
    )))
}

/// Index of the first byte of `\r\n\r\n`, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reason phrase for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Serialize a response with a `text/plain` body — head, then body —
/// into `out` (cleared first), ready to reach the socket as one write.
/// A connection reuses one `out` for every response it sends.
pub fn encode_response_into(status: u16, body: &str, keep_alive: bool, out: &mut Vec<u8>) {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    out.clear();
    write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{}",
        status,
        reason(status),
        body.len(),
        connection,
        body,
    )
    .expect("writing to a Vec cannot fail");
}

/// Serialize and send a response with a `text/plain` body, as one
/// `write` of head + body (see [`crate::wire::write_frame`] for why).
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    // Room for the longest head this server emits, so `out` grows once.
    let mut out = Vec::with_capacity(160 + body.len());
    encode_response_into(status, body, keep_alive, &mut out);
    writer.write_all(&out)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> Result<Option<(Request, usize)>, ParseError> {
        try_parse(bytes, &WireLimits::default())
    }

    #[test]
    fn parses_get_with_query_and_keep_alive_default() {
        let raw = b"GET /v1/models/xor?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n";
        let (req, used) = parse_all(raw).unwrap().unwrap();
        assert_eq!(used, raw.len());
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/models/xor");
        assert_eq!(req.query, "verbose=1");
        assert!(req.body.is_empty());
        assert!(req.keep_alive);
    }

    #[test]
    fn parses_post_body_and_leaves_pipelined_bytes() {
        let raw = b"POST /infer HTTP/1.1\r\nContent-Length: 4\r\n\r\n0110GET / HTTP/1.1\r\n\r\n";
        let (req, used) = parse_all(raw).unwrap().unwrap();
        assert_eq!(req.body, b"0110");
        assert_eq!(&raw[used..], b"GET / HTTP/1.1\r\n\r\n");
    }

    #[test]
    fn http_10_defaults_to_close() {
        let raw = b"GET / HTTP/1.0\r\n\r\n";
        let (req, _) = parse_all(raw).unwrap().unwrap();
        assert!(!req.keep_alive);
        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        let (req, _) = parse_all(raw).unwrap().unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn incomplete_requests_ask_for_more() {
        assert!(parse_all(b"GET / HT").unwrap().is_none());
        assert!(
            parse_all(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n0101")
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn malformed_inputs_get_precise_errors() {
        assert_eq!(
            parse_all(b"NONSENSE\r\n\r\n"),
            Err(ParseError::BadRequestLine)
        );
        assert_eq!(
            parse_all(b"GET / HTTP/2.0\r\n\r\n"),
            Err(ParseError::UnsupportedVersion)
        );
        assert_eq!(
            parse_all(b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n"),
            Err(ParseError::BadHeader)
        );
        assert_eq!(
            parse_all(b"POST / HTTP/1.1\r\nContent-Length: many\r\n\r\n"),
            Err(ParseError::BadContentLength)
        );
        assert_eq!(
            parse_all(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(ParseError::UnsupportedTransferEncoding)
        );
        assert_eq!(ParseError::BadRequestLine.status(), 400);
        assert_eq!(ParseError::BodyTooLarge.status(), 413);
    }

    #[test]
    fn limits_are_enforced() {
        let limits = WireLimits {
            max_head_bytes: 32,
            max_body_bytes: 8,
        };
        let long_head = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(64));
        assert_eq!(
            try_parse(long_head.as_bytes(), &limits),
            Err(ParseError::HeadTooLarge)
        );
        // Head never completes but already exceeds the cap.
        let partial = vec![b'A'; 64];
        assert_eq!(try_parse(&partial, &limits), Err(ParseError::HeadTooLarge));
        let body_limits = WireLimits {
            max_head_bytes: 1024,
            max_body_bytes: 8,
        };
        assert_eq!(
            try_parse(
                b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n",
                &body_limits
            ),
            Err(ParseError::BodyTooLarge)
        );
    }

    #[test]
    fn read_request_resumes_across_partial_reads() {
        struct Dribble(Vec<Vec<u8>>);
        impl Read for Dribble {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                match self.0.first().cloned() {
                    Some(part) => {
                        self.0.remove(0);
                        out[..part.len()].copy_from_slice(&part);
                        Ok(part.len())
                    }
                    None => Err(io::Error::new(io::ErrorKind::WouldBlock, "dry")),
                }
            }
        }
        let raw: &[u8] = b"POST /i HTTP/1.1\r\nContent-Length: 3\r\n\r\n101";
        let mut reader = Dribble(raw.chunks(7).map(|c| c.to_vec()).collect());
        let mut buf = Vec::new();
        let limits = WireLimits::default();
        loop {
            match read_request(&mut reader, &mut buf, &limits) {
                ReadOutcome::Ready(req) => {
                    assert_eq!(req.body, b"101");
                    break;
                }
                ReadOutcome::NeedMore => continue,
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        assert!(buf.is_empty());
    }

    /// Head and body reach the writer as exactly one `write` call.
    #[test]
    fn write_response_issues_one_write() {
        let mut writer = crate::CountingWriter::default();
        write_response(&mut writer, 200, "101\n", true).unwrap();
        assert_eq!(writer.writes, 1);
        assert!(writer.bytes.ends_with(b"\r\n\r\n101\n"));
    }

    #[test]
    fn write_response_emits_well_formed_http() {
        let mut out = Vec::new();
        write_response(&mut out, 429, "SHED\n", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\nSHED\n"));
    }
}

//! The length-prefixed binary protocol — the fast path.
//!
//! HTTP costs a text parse and ~100 bytes of header per request. For a
//! model whose whole input is a handful of bits, that overhead dwarfs
//! the payload, so high-rate clients (and the bundled load generator)
//! speak a binary framing instead:
//!
//! ```text
//! connection  = magic "LBNB" , { frame } ;
//! frame       = u32le length , payload ;          length = |payload|
//! request     = u16le name_len , name bytes (utf-8 "name@version")
//!             , u32le nbits , ceil(nbits/8) bytes, bits LSB-first ;
//! response    = u8 status , body ;
//!   status 0 OK          body = u32le nbits , packed bits
//!   status 1 SHED        body = empty          (admission control)
//!   status 2 NOT_FOUND   body = utf-8 message
//!   status 3 BAD_REQUEST body = utf-8 message  (arity, malformed)
//!   status 4 ERROR       body = utf-8 message  (engine failure)
//! ```
//!
//! One connection serves many requests, strictly in order: responses
//! come back in request order, so a client may pipeline freely. The
//! 4-byte magic doubles as the protocol sniff for the shared port — an
//! HTTP method never starts with `LBNB`.

use std::io::{self, Read, Write};

use lbnn_netlist::eval::{gather_bits, spread_bits};

/// Connection preamble; also how the server tells the two protocols apart.
pub const MAGIC: [u8; 4] = *b"LBNB";

/// Largest frame either side will accept (1 MiB payload).
pub const MAX_FRAME_BYTES: usize = 1024 * 1024;

/// Response status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Inference succeeded; body carries the output bits.
    Ok = 0,
    /// Request was shed by admission control; retry later.
    Shed = 1,
    /// No such model (or version) in the registry.
    NotFound = 2,
    /// The request itself is invalid (wrong arity, malformed frame).
    BadRequest = 3,
    /// The engine failed while executing an admitted request.
    Error = 4,
}

impl Status {
    /// Decode a status byte.
    pub fn from_byte(b: u8) -> Option<Status> {
        match b {
            0 => Some(Status::Ok),
            1 => Some(Status::Shed),
            2 => Some(Status::NotFound),
            3 => Some(Status::BadRequest),
            4 => Some(Status::Error),
            _ => None,
        }
    }
}

/// A decoded inference request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferRequest {
    /// Model spec, `name` or `name@version`.
    pub model: String,
    /// Input bits, one bool per netlist input.
    pub bits: Vec<bool>,
}

/// A decoded inference response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferResponse {
    /// Outcome of the request.
    pub status: Status,
    /// Output bits when `status == Ok`.
    pub bits: Vec<bool>,
    /// Human-readable detail for non-OK statuses.
    pub message: String,
}

/// Pack bits LSB-first into bytes (bit `i` → byte `i/8`, bit `i%8`).
pub fn pack_bits(bits: &[bool]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(bits.len().div_ceil(8));
    push_packed_bits(bits, &mut bytes);
    bytes
}

/// [`pack_bits`] appended onto `out`: 64 bits at a time through the
/// word-level [`gather_bits`], whose little-endian bytes are the wire
/// layout.
fn push_packed_bits(bits: &[bool], out: &mut Vec<u8>) {
    for chunk in bits.chunks(64) {
        let word = gather_bits(chunk).to_le_bytes();
        out.extend_from_slice(&word[..chunk.len().div_ceil(8)]);
    }
}

/// Inverse of [`pack_bits`]: take `nbits` bits back out of `bytes`,
/// eight bytes per [`spread_bits`] word.
pub fn unpack_bits(bytes: &[u8], nbits: usize) -> Option<Vec<bool>> {
    if bytes.len() != nbits.div_ceil(8) {
        return None;
    }
    let mut bits = vec![false; nbits];
    for (chunk, group) in bits.chunks_mut(64).zip(bytes.chunks(8)) {
        let mut word = [0u8; 8];
        word[..group.len()].copy_from_slice(group);
        spread_bits(u64::from_le_bytes(word), chunk);
    }
    Some(bits)
}

/// Encode a request as a frame payload (no length prefix).
pub fn encode_request(req: &InferRequest) -> Vec<u8> {
    let name = req.model.as_bytes();
    let packed = pack_bits(&req.bits);
    let mut out = Vec::with_capacity(2 + name.len() + 4 + packed.len());
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name);
    out.extend_from_slice(&(req.bits.len() as u32).to_le_bytes());
    out.extend_from_slice(&packed);
    out
}

/// Decode a request frame payload.
pub fn decode_request(payload: &[u8]) -> Result<InferRequest, String> {
    if payload.len() < 2 {
        return Err("frame too short for name length".into());
    }
    let name_len = u16::from_le_bytes([payload[0], payload[1]]) as usize;
    let rest = &payload[2..];
    if rest.len() < name_len + 4 {
        return Err("frame too short for model name + bit count".into());
    }
    let model = std::str::from_utf8(&rest[..name_len])
        .map_err(|_| "model name is not utf-8".to_string())?
        .to_string();
    let nbits = u32::from_le_bytes([
        rest[name_len],
        rest[name_len + 1],
        rest[name_len + 2],
        rest[name_len + 3],
    ]) as usize;
    let bits = unpack_bits(&rest[name_len + 4..], nbits)
        .ok_or_else(|| "bit payload length mismatch".to_string())?;
    Ok(InferRequest { model, bits })
}

/// Encode a response as a frame payload (no length prefix).
pub fn encode_response(resp: &InferResponse) -> Vec<u8> {
    let mut out = Vec::new();
    push_response(resp, &mut out);
    out
}

/// Encode a response as a whole frame — length prefix, then payload —
/// into `out` (cleared first), ready to reach the socket as one write.
/// A connection reuses one `out` for every response it sends.
pub fn encode_response_into(resp: &InferResponse, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&[0; 4]);
    push_response(resp, out);
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
}

/// Append a response's frame payload onto `out`.
fn push_response(resp: &InferResponse, out: &mut Vec<u8>) {
    out.push(resp.status as u8);
    match resp.status {
        Status::Ok => {
            out.extend_from_slice(&(resp.bits.len() as u32).to_le_bytes());
            push_packed_bits(&resp.bits, out);
        }
        _ => out.extend_from_slice(resp.message.as_bytes()),
    }
}

/// Decode a response frame payload.
pub fn decode_response(payload: &[u8]) -> Result<InferResponse, String> {
    let (&status_byte, body) = payload.split_first().ok_or("empty response frame")?;
    let status = Status::from_byte(status_byte)
        .ok_or_else(|| format!("unknown status byte {status_byte}"))?;
    match status {
        Status::Ok => {
            if body.len() < 4 {
                return Err("OK response too short for bit count".into());
            }
            let nbits = u32::from_le_bytes([body[0], body[1], body[2], body[3]]) as usize;
            let bits = unpack_bits(&body[4..], nbits)
                .ok_or_else(|| "OK response bit payload length mismatch".to_string())?;
            Ok(InferResponse {
                status,
                bits,
                message: String::new(),
            })
        }
        _ => Ok(InferResponse {
            status,
            bits: Vec::new(),
            message: String::from_utf8_lossy(body).into_owned(),
        }),
    }
}

/// Write one length-prefixed frame, as one `write` of prefix + payload.
/// Two small writes are two segments, and unless the socket has
/// `TCP_NODELAY` the second is held (Nagle) until the peer's delayed ACK
/// of the first arrives — ~40 ms per frame on a request/response
/// connection.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    writer.flush()
}

/// Outcome of one [`read_frame`] attempt (mirrors the HTTP reader).
#[derive(Debug)]
pub enum FrameOutcome {
    /// A complete frame payload, consumed from the buffer.
    Ready(Vec<u8>),
    /// Read timed out mid-frame; call again.
    NeedMore,
    /// Peer closed between frames — clean end of connection.
    Closed,
    /// The stream violates the framing (oversized or truncated frame).
    Bad(String),
    /// A socket error other than timeout.
    Io(io::Error),
}

/// Resumable frame reader: appends onto `buf`, pops one frame when whole.
pub fn read_frame<R: Read>(reader: &mut R, buf: &mut Vec<u8>) -> FrameOutcome {
    let mut chunk = [0u8; 4096];
    loop {
        if buf.len() >= 4 {
            let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
            if len > MAX_FRAME_BYTES {
                return FrameOutcome::Bad(format!(
                    "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
                ));
            }
            if buf.len() >= 4 + len {
                let payload = buf[4..4 + len].to_vec();
                buf.drain(..4 + len);
                return FrameOutcome::Ready(payload);
            }
        }
        match reader.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    FrameOutcome::Closed
                } else {
                    FrameOutcome::Bad("connection closed mid-frame".into())
                };
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return FrameOutcome::NeedMore;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return FrameOutcome::Io(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_round_trip_lsb_first() {
        let bits = vec![true, false, false, true, true, false, true, false, true];
        let packed = pack_bits(&bits);
        assert_eq!(packed, vec![0b0101_1001, 0b0000_0001]);
        assert_eq!(unpack_bits(&packed, bits.len()).unwrap(), bits);
        assert!(unpack_bits(&packed, 20).is_none());
        assert!(pack_bits(&[]).is_empty());
        assert_eq!(unpack_bits(&[], 0).unwrap(), Vec::<bool>::new());
    }

    #[test]
    fn request_round_trips() {
        let req = InferRequest {
            model: "xor@3".into(),
            bits: vec![true, true, false, true, false],
        };
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
    }

    #[test]
    fn response_round_trips() {
        let ok = InferResponse {
            status: Status::Ok,
            bits: vec![false, true, true],
            message: String::new(),
        };
        assert_eq!(decode_response(&encode_response(&ok)).unwrap(), ok);
        let shed = InferResponse {
            status: Status::Shed,
            bits: Vec::new(),
            message: String::new(),
        };
        assert_eq!(decode_response(&encode_response(&shed)).unwrap(), shed);
        let nf = InferResponse {
            status: Status::NotFound,
            bits: Vec::new(),
            message: "no model `nope`".into(),
        };
        assert_eq!(decode_response(&encode_response(&nf)).unwrap(), nf);
    }

    /// The whole-frame encoder is the payload encoder behind a length
    /// prefix, and a reused buffer carries nothing over.
    #[test]
    fn encode_response_into_is_prefix_plus_payload() {
        let mut out = b"stale bytes from the previous response".to_vec();
        for resp in [
            InferResponse {
                status: Status::Ok,
                bits: vec![
                    true, false, true, true, false, false, true, false, true, true,
                ],
                message: String::new(),
            },
            InferResponse {
                status: Status::Shed,
                bits: Vec::new(),
                message: String::new(),
            },
            InferResponse {
                status: Status::NotFound,
                bits: Vec::new(),
                message: "no model `nope`".into(),
            },
        ] {
            encode_response_into(&resp, &mut out);
            let mut framed = Vec::new();
            write_frame(&mut framed, &encode_response(&resp)).unwrap();
            assert_eq!(out, framed, "{resp:?}");
        }
    }

    /// A frame reaches the writer as exactly one `write` call.
    #[test]
    fn write_frame_issues_one_write() {
        let mut writer = crate::CountingWriter::default();
        write_frame(&mut writer, b"payload").unwrap();
        assert_eq!(writer.writes, 1);
        assert_eq!(writer.bytes, b"\x07\0\0\0payload");
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[0xff, 0xff, b'a']).is_err());
        // name_len fits, but bit payload is short one byte.
        let mut payload = Vec::new();
        payload.extend_from_slice(&3u16.to_le_bytes());
        payload.extend_from_slice(b"xor");
        payload.extend_from_slice(&16u32.to_le_bytes());
        payload.push(0xab);
        assert!(decode_request(&payload).is_err());
        assert!(decode_response(&[]).is_err());
        assert!(decode_response(&[9]).is_err());
        assert!(Status::from_byte(7).is_none());
    }

    #[test]
    fn frame_reader_handles_split_and_pipelined_frames() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"first").unwrap();
        write_frame(&mut stream, b"second").unwrap();
        // Feed the whole stream at once: both frames pop out in order.
        let mut cursor = io::Cursor::new(stream);
        let mut buf = Vec::new();
        match read_frame(&mut cursor, &mut buf) {
            FrameOutcome::Ready(p) => assert_eq!(p, b"first"),
            other => panic!("unexpected: {other:?}"),
        }
        match read_frame(&mut cursor, &mut buf) {
            FrameOutcome::Ready(p) => assert_eq!(p, b"second"),
            other => panic!("unexpected: {other:?}"),
        }
        match read_frame(&mut cursor, &mut buf) {
            FrameOutcome::Closed => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn frame_reader_rejects_oversized_and_truncated() {
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        let mut cursor = io::Cursor::new(huge.to_vec());
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut cursor, &mut buf),
            FrameOutcome::Bad(_)
        ));
        // Length says 10 bytes, stream closes after 2.
        let mut truncated = 10u32.to_le_bytes().to_vec();
        truncated.extend_from_slice(b"ab");
        let mut cursor = io::Cursor::new(truncated);
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut cursor, &mut buf),
            FrameOutcome::Bad(_)
        ));
    }
}

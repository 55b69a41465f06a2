//! Binary netlist serialization — the IR layer of the workspace's
//! self-contained artifacts.
//!
//! [`Netlist::to_bytes`] / [`Netlist::from_bytes`] encode the arena as a
//! compact little-endian image (opcode + fanins + names per node, then
//! the input/output interface). Deserialization rebuilds the netlist
//! through the arena API, so every structural invariant (topological
//! order, arity, id ranges) is re-checked: corrupt images come back as
//! [`NetlistError::Malformed`], never a panic.
//!
//! The [`ByteWriter`] / [`ByteReader`] pair is shared with
//! `lbnn-core::artifact`, which embeds netlist images inside its
//! versioned, checksummed artifact container.

use crate::cell::Op;
use crate::error::NetlistError;
use crate::netlist::{Netlist, NodeId};

/// Little-endian byte-stream writer backing all artifact encoders.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes (no length prefix).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u32` length prefix followed by the UTF-8 bytes.
    pub fn put_str(&mut self, v: &str) {
        self.put_u32(v.len() as u32);
        self.put_bytes(v.as_bytes());
    }
}

/// Bounds-checked little-endian reader over an encoded image.
///
/// Every accessor returns [`NetlistError::Malformed`] instead of
/// panicking when the image is truncated.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// `true` when the whole image has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn truncated(&self, what: &str) -> NetlistError {
        NetlistError::Malformed {
            reason: format!(
                "unexpected end of image at byte {} (reading {what})",
                self.pos
            ),
        }
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Malformed`] if fewer than `n` bytes remain.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], NetlistError> {
        if self.remaining() < n {
            return Err(self.truncated("bytes"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Malformed`] on a truncated image.
    pub fn get_u8(&mut self) -> Result<u8, NetlistError> {
        Ok(self.get_bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Malformed`] on a truncated image.
    pub fn get_u32(&mut self) -> Result<u32, NetlistError> {
        let b = self.get_bytes(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Malformed`] on a truncated image.
    pub fn get_u64(&mut self) -> Result<u64, NetlistError> {
        let b = self.get_bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Malformed`] on a truncated image.
    pub fn get_f64(&mut self) -> Result<f64, NetlistError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Malformed`] on truncation or invalid UTF-8.
    pub fn get_str(&mut self) -> Result<String, NetlistError> {
        let len = self.get_u32()? as usize;
        let at = self.pos;
        let bytes = self.get_bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| NetlistError::Malformed {
            reason: format!("invalid UTF-8 in string at byte {at}"),
        })
    }

    /// Reads a `u32` count that must be plausible for `bytes_per_item`
    /// items in the remaining image (an overflow guard so corrupt counts
    /// fail fast instead of attempting huge allocations).
    ///
    /// # Errors
    ///
    /// [`NetlistError::Malformed`] on truncation or an impossible count.
    pub fn get_count(&mut self, what: &str, bytes_per_item: usize) -> Result<usize, NetlistError> {
        let count = self.get_u32()? as usize;
        if count.saturating_mul(bytes_per_item.max(1)) > self.remaining() {
            return Err(NetlistError::Malformed {
                reason: format!(
                    "{what} count {count} exceeds the {} bytes remaining",
                    self.remaining()
                ),
            });
        }
        Ok(count)
    }
}

impl Netlist {
    /// Serializes the netlist to its binary image.
    ///
    /// The inverse is [`Netlist::from_bytes`]; `from_bytes(&to_bytes())`
    /// reproduces the netlist exactly (node ids, names, interface order).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        write_netlist(self, &mut w);
        w.into_bytes()
    }

    /// Deserializes a netlist from the image produced by
    /// [`Netlist::to_bytes`].
    ///
    /// The arena is rebuilt node by node through the construction API, so
    /// all structural invariants are re-validated.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Malformed`] on truncated or structurally invalid
    /// images (never panics on untrusted bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<Netlist, NetlistError> {
        let mut r = ByteReader::new(bytes);
        let nl = read_netlist(&mut r)?;
        if !r.is_empty() {
            return Err(NetlistError::Malformed {
                reason: format!("{} trailing bytes after netlist image", r.remaining()),
            });
        }
        Ok(nl)
    }
}

/// Writes a netlist image into an existing writer (used by the core
/// artifact container to embed netlists without an extra copy).
pub fn write_netlist(nl: &Netlist, w: &mut ByteWriter) {
    w.put_str(nl.name());
    w.put_u32(nl.len() as u32);
    for (id, node) in nl.iter() {
        w.put_u8(node.op().code());
        match nl.node_name(id) {
            Some(name) => {
                w.put_u8(1);
                w.put_str(name);
            }
            None => w.put_u8(0),
        }
        for f in node.fanins() {
            w.put_u32(f.index() as u32);
        }
    }
    w.put_u32(nl.outputs().len() as u32);
    for out in nl.outputs() {
        w.put_u32(out.node.index() as u32);
        w.put_str(&out.name);
    }
}

/// Reads one netlist image from the reader's current position (the
/// embedded-image counterpart of [`Netlist::from_bytes`]).
///
/// # Errors
///
/// [`NetlistError::Malformed`] on truncated or structurally invalid
/// images.
pub fn read_netlist(r: &mut ByteReader<'_>) -> Result<Netlist, NetlistError> {
    let malformed = |reason: String| NetlistError::Malformed { reason };
    let name = r.get_str()?;
    let mut nl = Netlist::new(name);
    let node_count = r.get_count("node", 2)?;
    nl.reserve_nodes(node_count);
    for i in 0..node_count {
        let code = r.get_u8()?;
        let op = Op::from_code(code)
            .ok_or_else(|| malformed(format!("node {i}: unknown opcode {code}")))?;
        let node_name = if r.get_u8()? == 1 {
            Some(r.get_str()?)
        } else {
            None
        };
        let mut fanins = [NodeId::new(0); 2];
        for slot in fanins.iter_mut().take(op.arity()) {
            let raw = r.get_u32()?;
            if raw as usize >= i {
                return Err(malformed(format!(
                    "node {i}: fanin {raw} breaks topological order"
                )));
            }
            *slot = NodeId::new(raw);
        }
        let id = match op {
            Op::Input => nl.add_input(node_name.clone().unwrap_or_else(|| "in".to_string())),
            op => nl
                .add_node(op, &fanins[..op.arity()])
                .map_err(|e| malformed(format!("node {i}: {e}")))?,
        };
        if op != Op::Input {
            if let Some(n) = node_name {
                nl.set_node_name(id, n);
            }
        }
    }
    let output_count = r.get_count("output", 8)?;
    for i in 0..output_count {
        let node = r.get_u32()? as usize;
        let po_name = r.get_str()?;
        if node >= nl.len() {
            return Err(malformed(format!(
                "output {i} ({po_name}) points at missing node {node}"
            )));
        }
        nl.add_output(NodeId::new(node as u32), po_name);
    }
    // Every fanin was checked below its node and every output inside
    // the arena as it was read, so of `Netlist::validate` only the
    // output count is left to check.
    if nl.outputs().is_empty() {
        let e = NetlistError::NoOutputs;
        return Err(malformed(format!("reconstructed netlist is invalid: {e}")));
    }
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::RandomDag;

    fn sample() -> Netlist {
        let mut nl = Netlist::new("mix");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let one = nl.add_const(true);
        let g0 = nl.add_gate2(Op::And, a, b);
        let g1 = nl.add_gate2(Op::Xor, g0, one);
        let g2 = nl.add_gate1(Op::Not, g1);
        nl.set_node_name(g2, "inv_out");
        nl.add_output(g1, "y");
        nl.add_output(g2, "yn");
        nl
    }

    #[test]
    fn round_trip_is_exact() {
        let nl = sample();
        let back = Netlist::from_bytes(&nl.to_bytes()).unwrap();
        assert_eq!(nl, back);
    }

    #[test]
    fn round_trip_random_dags() {
        for seed in 0..8 {
            let nl = RandomDag::loose(10, 5, 8).outputs(3).generate(seed);
            let bytes = nl.to_bytes();
            let back = Netlist::from_bytes(&bytes).unwrap();
            assert_eq!(nl, back, "seed {seed}");
            // Function preserved, not just structure.
            for m in 0..32u64 {
                let bits: Vec<bool> = (0..10).map(|i| m >> i & 1 != 0).collect();
                assert_eq!(nl.eval_bools(&bits), back.eval_bools(&bits));
            }
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = Netlist::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, NetlistError::Malformed { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn corrupt_opcode_and_fanin_are_rejected() {
        let nl = sample();
        let bytes = nl.to_bytes();
        // Flipping any single byte must never panic; it either still
        // parses (name bytes) or reports Malformed.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            match Netlist::from_bytes(&bad) {
                Ok(_) | Err(NetlistError::Malformed { .. }) => {}
                Err(other) => panic!("byte {i}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Netlist::from_bytes(&bytes),
            Err(NetlistError::Malformed { .. })
        ));
    }

    #[test]
    fn reader_primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(333.25);
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap(), 333.25);
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert!(r.is_empty());
        assert!(r.get_u8().is_err());
    }

    /// A hand-written image: unnamed nodes with the given fanins, and
    /// outputs at the given nodes.
    fn forged(nodes: &[(Op, &[u32])], outputs: &[u32]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str("forged");
        w.put_u32(nodes.len() as u32);
        for &(op, fanins) in nodes {
            w.put_u8(op.code());
            w.put_u8(0);
            fanins.iter().for_each(|&f| w.put_u32(f));
        }
        w.put_u32(outputs.len() as u32);
        for &node in outputs {
            w.put_u32(node);
            w.put_str("y");
        }
        w.into_bytes()
    }

    /// The structural checks the reader makes as it reads, each with
    /// its own `Malformed` reason.
    #[test]
    fn forged_structure_is_malformed() {
        let reason = |bytes: Vec<u8>| match Netlist::from_bytes(&bytes) {
            Err(NetlistError::Malformed { reason }) => reason,
            other => panic!("expected Malformed, got {other:?}"),
        };
        let input = (Op::Input, &[][..]);
        for fanins in [[0, 1], [0, 2]] {
            let got = reason(forged(&[input, (Op::And, &fanins)], &[1]));
            assert!(got.contains("breaks topological order"), "{got}");
        }
        let got = reason(forged(&[input, input], &[2]));
        assert!(got.contains("points at missing node 2"), "{got}");
        let not = (Op::Not, &[0][..]);
        let no_outputs = NetlistError::NoOutputs;
        let got = reason(forged(&[input, not], &[]));
        assert_eq!(
            got,
            format!("reconstructed netlist is invalid: {no_outputs}")
        );
        let nl = Netlist::from_bytes(&forged(&[input, not], &[1])).unwrap();
        assert_eq!((nl.len(), nl.outputs().len()), (2, 1));
    }

    #[test]
    fn count_guard_rejects_absurd_counts() {
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_count("node", 2).is_err());
    }
}

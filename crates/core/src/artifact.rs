//! Self-contained serialized artifacts: compile once, serve anywhere.
//!
//! The paper's deployment model is a one-time compile whose product is
//! replayed forever. This module gives that product a process boundary:
//! [`Flow::save`]/[`Flow::load`] and
//! [`CompiledModel::save`]/[`CompiledModel::load`] write a versioned,
//! checksummed binary image holding everything serving needs — the
//! mapped netlist (binary image, [`lbnn_netlist::serdes`]), the
//! [`LpuConfig`], the [`Backend`] choice (including the bit-slice width
//! since format v2), the self-describing
//! [`EncodedProgram`], the [`FlowStats`], the per-pass
//! [`CompileReport`], and (since format v3) the instruction→cell id
//! table that lets patch deltas address a loaded program's cells, and
//! the execution partition count. Bit-sliced kernels are not stored:
//! [`Engine`](crate::Engine) construction derives them (one tape, or N
//! partition tapes plus the exchange schedule) from the mapped netlist,
//! deterministically, so a loaded flow serves bit-identically to the
//! process that compiled it.
//!
//! There is one container kind (since format v6): every image holds a
//! model, and a flow is stored as the one-layer model it is
//! ([`CompiledModel::from`]) — named after its mapped netlist, one block
//! at one site. [`Flow::to_artifact_bytes`] and
//! `CompiledModel::from(flow).to_artifact_bytes()` are the same bytes,
//! so either loader reads a flow's file and a delta made against the
//! flow applies to the model too.
//!
//! Artifacts also support **deltas**: a [`PatchDelta`] (`.lbnnp`) is a
//! checksummed list of per-cell function replacements bound to the
//! exact base artifact it was made against — see
//! [`Flow::apply_delta`] / [`CompiledModel::apply_delta`] and the hot
//! reconfiguration section of `docs/ARCHITECTURE.md`.
//!
//! ## Container layout
//!
//! ```text
//! ┌──────────────┬─────────┬─────────────┬─────────┬──────────┐
//! │ magic        │ version │ payload len │ payload │ checksum │
//! │ "LBNNARTF"   │ u32     │ u64         │ bytes   │ u64 FNV  │
//! └──────────────┴─────────┴─────────────┴─────────┴──────────┘
//! ```
//!
//! The payload is the model: its name, the [`LpuConfig`], the layer
//! count, then per layer its name, `blocks`, `sites` and flow payload
//! (length-prefixed).
//!
//! The checksum is FNV-1a over everything before it. Validation is
//! layered so corruption surfaces as the most specific typed error
//! ([`ArtifactError`]): wrong magic → `BadMagic`, unknown version →
//! `UnsupportedVersion`, short image → `Truncated`, flipped bytes →
//! `ChecksumMismatch`, structural nonsense inside a valid envelope →
//! `Malformed`. Nothing in this module panics on untrusted bytes.
//!
//! ```
//! use lbnn_core::{CompiledModel, Flow, LpuConfig};
//! use lbnn_netlist::random::RandomDag;
//!
//! let netlist = RandomDag::strict(12, 5, 8).outputs(3).generate(7);
//! let flow = Flow::builder(&netlist).config(LpuConfig::new(6, 4)).compile()?;
//! let bytes = flow.to_artifact_bytes()?;
//! let loaded = Flow::from_artifact_bytes(&bytes)?;
//! assert_eq!(loaded.stats, flow.stats);
//! assert_eq!(loaded.report, flow.report); // pass timings travel along
//! // The same image is the one-layer model the flow is.
//! assert_eq!(CompiledModel::from_artifact_bytes(&bytes)?.layers().len(), 1);
//! # Ok::<(), lbnn_core::CoreError>(())
//! ```

use std::path::Path;
use std::sync::Arc;

use lbnn_netlist::serdes::{read_netlist, write_netlist, ByteReader, ByteWriter};
use lbnn_netlist::{
    Levels, Netlist, NetlistError, NodeId, Op, PatchSet, MAX_PARTITIONS, SUPPORTED_SLICE_WORDS,
};

use crate::compiler::isa::{decode_program, encode_program, image_format, EncodedProgram};
use crate::compiler::pipeline::{CompileReport, PassReport};
use crate::compiler::program::{InputSlot, OutputTap};
use crate::engine::Backend;
use crate::error::{ArtifactError, CoreError};
use crate::flow::{Flow, FlowStats};
use crate::lpu::LpuConfig;
use crate::model::{CompiledLayer, CompiledModel};

/// Artifact file magic.
const MAGIC: [u8; 8] = *b"LBNNARTF";
/// Patch-delta (`.lbnnp`) file magic.
const PATCH_MAGIC: [u8; 8] = *b"LBNNPTCH";
/// Current patch-delta format version.
pub const PATCH_VERSION: u32 = 1;
/// Current container format version. Version 2 added the bit-slice
/// width (`words`) to the backend record; version 3 added the
/// instruction→cell id table that binds each program instruction to its
/// mapped-netlist node, which is what lets patch deltas (`.lbnnp`)
/// address cells of a *loaded* artifact; version 4 added the execution
/// partition count plus a serialized image of the partitioned kernel
/// tapes; version 5 dropped that image — an artifact carries the mapped
/// netlist and the scalar program, and every bit-sliced kernel (single
/// tape or partitioned) is derived from the netlist at engine build;
/// version 6 dropped the container kind byte — every image holds a
/// model, and a flow is stored as the one-layer model it is.
/// Older images are rejected with
/// [`ArtifactError::UnsupportedVersion`].
pub const ARTIFACT_VERSION: u32 = 6;

/// FNV-1a 64-bit checksum (dependency-free, deterministic, fast enough
/// for artifact-sized payloads).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn malformed(reason: impl Into<String>) -> CoreError {
    CoreError::Artifact(ArtifactError::Malformed {
        reason: reason.into(),
    })
}

/// Maps byte-reader errors (which are netlist-flavoured) onto the
/// artifact error space.
fn rd<T>(r: Result<T, NetlistError>) -> Result<T, CoreError> {
    r.map_err(|e| malformed(e.to_string()))
}

// ---------------------------------------------------------------------------
// Container envelope
// ---------------------------------------------------------------------------

fn wrap(payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(&MAGIC);
    w.put_u32(ARTIFACT_VERSION);
    w.put_u64(payload.len() as u64);
    w.put_bytes(payload);
    let mut out = w.into_bytes();
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

fn unwrap(bytes: &[u8]) -> Result<&[u8], CoreError> {
    const HEADER: usize = 8 + 4 + 8;
    if bytes.len() < 8 {
        return Err(CoreError::Artifact(ArtifactError::Truncated {
            expected: HEADER + 8,
            got: bytes.len(),
        }));
    }
    if bytes[..8] != MAGIC {
        return Err(CoreError::Artifact(ArtifactError::BadMagic));
    }
    if bytes.len() < HEADER {
        return Err(CoreError::Artifact(ArtifactError::Truncated {
            expected: HEADER + 8,
            got: bytes.len(),
        }));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != ARTIFACT_VERSION {
        return Err(CoreError::Artifact(ArtifactError::UnsupportedVersion {
            found: version,
            supported: ARTIFACT_VERSION,
        }));
    }
    let payload_len = u64::from_le_bytes(bytes[12..HEADER].try_into().expect("8 bytes")) as usize;
    let expected = HEADER
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(8))
        .ok_or_else(|| malformed("payload length overflows"))?;
    if bytes.len() < expected {
        return Err(CoreError::Artifact(ArtifactError::Truncated {
            expected,
            got: bytes.len(),
        }));
    }
    if bytes.len() > expected {
        return Err(malformed(format!(
            "{} trailing bytes after artifact",
            bytes.len() - expected
        )));
    }
    let stored = u64::from_le_bytes(bytes[expected - 8..].try_into().expect("8 bytes"));
    let computed = fnv1a64(&bytes[..expected - 8]);
    if stored != computed {
        return Err(CoreError::Artifact(ArtifactError::ChecksumMismatch {
            stored,
            computed,
        }));
    }
    Ok(&bytes[HEADER..HEADER + payload_len])
}

// ---------------------------------------------------------------------------
// Field encoders
// ---------------------------------------------------------------------------

fn write_config(w: &mut ByteWriter, c: &LpuConfig) {
    w.put_u64(c.m as u64);
    w.put_u64(c.n as u64);
    w.put_u64(c.tsw as u64);
    w.put_f64(c.freq_mhz);
}

fn read_config(r: &mut ByteReader<'_>) -> Result<LpuConfig, CoreError> {
    let config = LpuConfig {
        m: rd(r.get_u64())? as usize,
        n: rd(r.get_u64())? as usize,
        tsw: rd(r.get_u64())? as usize,
        freq_mhz: rd(r.get_f64())?,
    };
    config.validate().map_err(|e| malformed(e.to_string()))?;
    Ok(config)
}

/// Backend record: one code byte, plus a `words` byte for bit-sliced
/// backends (format v2).
///
/// The writer records unsupported-but-representable widths faithfully
/// (the reader turns them into [`ArtifactError::UnsupportedWidth`]), but
/// a width that does not fit the u8 field must fail here — silently
/// truncating it would serialize a *different, valid* width.
fn write_backend(w: &mut ByteWriter, b: Backend) -> Result<(), CoreError> {
    match b {
        Backend::Scalar => w.put_u8(0),
        Backend::BitSliced { words } => {
            let byte = u8::try_from(words).map_err(|_| CoreError::BadConfig {
                reason: format!(
                    "bit-sliced backend width of {words} words does not fit the artifact's \
                     width field (supported widths are {SUPPORTED_SLICE_WORDS:?} words)"
                ),
            })?;
            w.put_u8(1);
            w.put_u8(byte);
        }
    }
    Ok(())
}

fn read_backend(r: &mut ByteReader<'_>) -> Result<Backend, CoreError> {
    match rd(r.get_u8())? {
        0 => Ok(Backend::Scalar),
        1 => {
            let words = rd(r.get_u8())?;
            let backend = Backend::BitSliced {
                words: words as usize,
            };
            // A corrupt or future width byte is its own typed error, so
            // callers can distinguish "unknown lane width" from general
            // structural damage.
            if backend.validate().is_err() {
                return Err(CoreError::Artifact(ArtifactError::UnsupportedWidth {
                    words,
                }));
            }
            Ok(backend)
        }
        other => Err(malformed(format!("unknown backend code {other}"))),
    }
}

fn write_stats(w: &mut ByteWriter, s: &FlowStats) {
    w.put_u64(s.gates as u64);
    w.put_u32(s.depth);
    w.put_u64(s.balance_buffers as u64);
    w.put_u64(s.mfgs_before_merge as u64);
    w.put_u64(s.mfgs as u64);
    w.put_u64(s.executed_nodes as u64);
    w.put_u64(s.compute_cycles as u64);
    w.put_u64(s.clock_cycles);
    w.put_u64(s.queue_depth as u64);
    w.put_u64(s.steady_clock_cycles);
}

fn read_stats(r: &mut ByteReader<'_>) -> Result<FlowStats, CoreError> {
    Ok(FlowStats {
        gates: rd(r.get_u64())? as usize,
        depth: rd(r.get_u32())?,
        balance_buffers: rd(r.get_u64())? as usize,
        mfgs_before_merge: rd(r.get_u64())? as usize,
        mfgs: rd(r.get_u64())? as usize,
        executed_nodes: rd(r.get_u64())? as usize,
        compute_cycles: rd(r.get_u64())? as usize,
        clock_cycles: rd(r.get_u64())?,
        queue_depth: rd(r.get_u64())? as usize,
        steady_clock_cycles: rd(r.get_u64())?,
    })
}

fn write_report(w: &mut ByteWriter, report: &CompileReport) {
    w.put_u32(report.passes.len() as u32);
    for pass in &report.passes {
        w.put_str(&pass.name);
        w.put_str(&pass.stat);
        w.put_f64(pass.wall_us);
        w.put_u64(pass.before as u64);
        w.put_u64(pass.after as u64);
    }
    w.put_u32(report.schedule_attempts as u32);
}

fn read_report(r: &mut ByteReader<'_>) -> Result<CompileReport, CoreError> {
    let count = rd(r.get_count("pass", 8))?;
    let mut passes = Vec::with_capacity(count);
    for _ in 0..count {
        passes.push(PassReport {
            name: rd(r.get_str())?,
            stat: rd(r.get_str())?,
            wall_us: rd(r.get_f64())?,
            before: rd(r.get_u64())? as usize,
            after: rd(r.get_u64())? as usize,
        });
    }
    let schedule_attempts = rd(r.get_u32())? as usize;
    Ok(CompileReport {
        passes,
        schedule_attempts,
    })
}

fn write_encoded_program(w: &mut ByteWriter, p: &EncodedProgram) {
    w.put_u64(p.format.m as u64);
    w.put_u64(p.n as u64);
    w.put_u64(p.queue_depth as u64);
    w.put_u64(p.total_cycles as u64);
    w.put_u64(p.num_inputs as u64);
    w.put_u32(p.input_buffer.len() as u32);
    for slot in &p.input_buffer {
        let InputSlot::Pi(pi) = slot;
        w.put_u32(*pi);
    }
    w.put_u32(p.outputs.len() as u32);
    for tap in &p.outputs {
        w.put_u64(tap.po as u64);
        w.put_u64(tap.lpv as u64);
        w.put_u64(tap.cycle as u64);
        w.put_u64(tap.lpe as u64);
    }
    for queue in &p.words {
        for slot in queue {
            match slot {
                None => w.put_u8(0),
                Some(words) => {
                    w.put_u8(1);
                    w.put_u32(words.len() as u32);
                    for &word in words {
                        w.put_u64(word);
                    }
                }
            }
        }
    }
}

fn read_encoded_program(r: &mut ByteReader<'_>) -> Result<EncodedProgram, CoreError> {
    let m = rd(r.get_u64())? as usize;
    let n = rd(r.get_u64())? as usize;
    let queue_depth = rd(r.get_u64())? as usize;
    let total_cycles = rd(r.get_u64())? as usize;
    let num_inputs = rd(r.get_u64())? as usize;
    let format = image_format(m)?;
    // Every LPV stores `queue_depth` slot flags; an LPV is counted as at
    // least one byte so an empty queue cannot declare unbounded LPVs.
    if n.saturating_mul(queue_depth.max(1)) > r.remaining() {
        return Err(malformed(format!(
            "program declares {n} x {queue_depth} queue slots, larger than the image"
        )));
    }
    let input_count = rd(r.get_count("input-buffer slot", 4))?;
    let mut input_buffer = Vec::with_capacity(input_count);
    for _ in 0..input_count {
        input_buffer.push(InputSlot::Pi(rd(r.get_u32())?));
    }
    let tap_count = rd(r.get_count("output tap", 32))?;
    let mut outputs = Vec::with_capacity(tap_count);
    for _ in 0..tap_count {
        outputs.push(OutputTap {
            po: rd(r.get_u64())? as usize,
            lpv: rd(r.get_u64())? as usize,
            cycle: rd(r.get_u64())? as usize,
            lpe: rd(r.get_u64())? as usize,
        });
    }
    let mut words = Vec::with_capacity(n);
    for _ in 0..n {
        let mut queue = Vec::with_capacity(queue_depth);
        for _ in 0..queue_depth {
            match rd(r.get_u8())? {
                0 => queue.push(None),
                1 => {
                    let len = rd(r.get_count("instruction word", 8))?;
                    let mut instr = Vec::with_capacity(len);
                    for _ in 0..len {
                        instr.push(rd(r.get_u64())?);
                    }
                    queue.push(Some(instr));
                }
                other => return Err(malformed(format!("bad queue-slot flag {other}"))),
            }
        }
        words.push(queue);
    }
    Ok(EncodedProgram {
        format,
        n,
        queue_depth,
        total_cycles,
        num_inputs,
        input_buffer,
        outputs,
        words,
    })
}

// ---------------------------------------------------------------------------
// Flow payload
// ---------------------------------------------------------------------------

/// Instruction→cell id table (format v3): one u32 per LPE lane of every
/// occupied queue slot, in queue order — the mapped-netlist node each
/// instruction computes, or `u32::MAX` for an empty lane. The hardware
/// bitstream ([`encode_program`]) stays free of node annotations; this
/// container-level table is what re-binds a loaded program's
/// instructions to stable cell ids so patch deltas can address them.
fn write_node_table(w: &mut ByteWriter, program: &crate::compiler::program::LpuProgram) {
    for queue in &program.queues {
        for slot in queue.iter().flatten() {
            for lpe in &slot.lpes {
                w.put_u32(lpe.as_ref().map_or(u32::MAX, |i| i.node.index() as u32));
            }
        }
    }
}

/// Rehydrates the `node` field of every decoded instruction from the
/// v3 node table; see [`write_node_table`].
fn read_node_table(
    r: &mut ByteReader<'_>,
    program: &mut crate::compiler::program::LpuProgram,
    netlist: &Netlist,
) -> Result<(), CoreError> {
    for queue in &mut program.queues {
        for slot in queue.iter_mut().flatten() {
            for lpe in slot.lpes.iter_mut() {
                let id = rd(r.get_u32())?;
                match lpe {
                    Some(instr) => {
                        if id as usize >= netlist.len() {
                            return Err(malformed(format!(
                                "node table binds an instruction to cell {id}, but the mapped \
                                 netlist has {} nodes",
                                netlist.len()
                            )));
                        }
                        instr.node = NodeId::new(id);
                    }
                    None => {
                        if id != u32::MAX {
                            return Err(malformed(
                                "node table annotates an empty LPE lane".to_string(),
                            ));
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

fn encode_flow_payload(flow: &Flow) -> Result<Vec<u8>, CoreError> {
    let mut w = ByteWriter::new();
    write_netlist(&flow.netlist, &mut w);
    write_config(&mut w, &flow.config);
    write_backend(&mut w, flow.backend)?;
    write_stats(&mut w, &flow.stats);
    write_report(&mut w, &flow.report);
    write_encoded_program(&mut w, &encode_program(&flow.program)?);
    write_node_table(&mut w, &flow.program);
    // The payload ends at the execution partition count: kernels are
    // derived from the netlist above, never stored.
    if flow.partitions == 0 || flow.partitions > MAX_PARTITIONS {
        return Err(CoreError::BadConfig {
            reason: format!(
                "flow has {} partitions, outside 1..={MAX_PARTITIONS}",
                flow.partitions
            ),
        });
    }
    w.put_u32(flow.partitions as u32);
    Ok(w.into_bytes())
}

fn decode_flow_payload(payload: &[u8]) -> Result<Flow, CoreError> {
    let mut r = ByteReader::new(payload);
    let netlist = rd(read_netlist(&mut r))?;
    let config = read_config(&mut r)?;
    let backend = read_backend(&mut r)?;
    let stats = read_stats(&mut r)?;
    let report = read_report(&mut r)?;
    let encoded = read_encoded_program(&mut r)?;
    if encoded.format.m != config.m || encoded.n != config.n {
        return Err(malformed(format!(
            "program was encoded for m={}, n={} but the config says m={}, n={}",
            encoded.format.m, encoded.n, config.m, config.n
        )));
    }
    if encoded.num_inputs != netlist.inputs().len() {
        return Err(malformed(format!(
            "program expects {} inputs but the mapped netlist has {}",
            encoded.num_inputs,
            netlist.inputs().len()
        )));
    }
    if encoded.outputs.len() != netlist.outputs().len() {
        return Err(malformed(format!(
            "program taps {} outputs but the mapped netlist has {}",
            encoded.outputs.len(),
            netlist.outputs().len()
        )));
    }
    // Balanced-netlist depth is a serving invariant other layers rely on.
    let depth = Levels::compute(&netlist).depth();
    if depth != stats.depth {
        return Err(malformed(format!(
            "netlist depth {depth} disagrees with recorded stats depth {}",
            stats.depth
        )));
    }
    let mut program = decode_program(&encoded)?;
    read_node_table(&mut r, &mut program, &netlist)?;
    let partitions = rd(r.get_u32())? as usize;
    if partitions == 0 || partitions > MAX_PARTITIONS {
        return Err(malformed(format!(
            "flow declares {partitions} partitions, outside 1..={MAX_PARTITIONS}"
        )));
    }
    if !r.is_empty() {
        return Err(malformed(format!(
            "{} trailing bytes after flow payload",
            r.remaining()
        )));
    }
    Ok(Flow {
        source: netlist.clone(),
        netlist,
        program: Arc::new(program),
        config,
        backend,
        stats,
        report,
        partitions,
        partitioned: None,
        artifacts: None,
    })
}

// ---------------------------------------------------------------------------
// Model payload
// ---------------------------------------------------------------------------

/// One decoded layer: label, blocks, sites, flow.
type LoadedLayer = (String, u64, u64, Flow);

/// Writes a whole artifact image: the model payload — name, machine,
/// layer count, then per layer its label, replication counts and flow
/// payload — in the container. A flow is written here as the one layer
/// of its model ([`Flow::to_artifact_bytes`]), so there is one image per
/// compile.
fn encode_model<'a>(
    name: &str,
    config: &LpuConfig,
    layers: impl ExactSizeIterator<Item = (&'a str, u64, u64, &'a Flow)>,
) -> Result<Vec<u8>, CoreError> {
    let mut w = ByteWriter::new();
    w.put_str(name);
    write_config(&mut w, config);
    w.put_u32(layers.len() as u32);
    for (name, blocks, sites, flow) in layers {
        w.put_str(name);
        w.put_u64(blocks);
        w.put_u64(sites);
        let flow = encode_flow_payload(flow)?;
        w.put_u64(flow.len() as u64);
        w.put_bytes(&flow);
    }
    Ok(wrap(&w.into_bytes()))
}

/// Reads an artifact image back into its model name, machine and layers,
/// however many there are: each caller checks the count it accepts.
fn decode_model(bytes: &[u8]) -> Result<(String, LpuConfig, Vec<LoadedLayer>), CoreError> {
    let mut r = ByteReader::new(unwrap(bytes)?);
    let name = rd(r.get_str())?;
    let config = read_config(&mut r)?;
    let layer_count = rd(r.get_count("layer", 16))?;
    let mut layers = Vec::with_capacity(layer_count);
    for _ in 0..layer_count {
        let layer_name = rd(r.get_str())?;
        let blocks = rd(r.get_u64())?;
        let sites = rd(r.get_u64())?;
        let flow_len = rd(r.get_u64())? as usize;
        let flow = decode_flow_payload(rd(r.get_bytes(flow_len))?)?;
        if flow.config != config {
            return Err(malformed(format!(
                "layer `{layer_name}` was compiled for a different machine than the model"
            )));
        }
        layers.push((layer_name, blocks, sites, flow));
    }
    if !r.is_empty() {
        return Err(malformed(format!(
            "{} trailing bytes after model payload",
            r.remaining()
        )));
    }
    Ok((name, config, layers))
}

fn write_file(path: &Path, bytes: &[u8]) -> Result<(), CoreError> {
    std::fs::write(path, bytes).map_err(|e| {
        CoreError::Artifact(ArtifactError::Io {
            reason: format!("{}: {e}", path.display()),
        })
    })
}

fn read_file(path: &Path) -> Result<Vec<u8>, CoreError> {
    std::fs::read(path).map_err(|e| {
        CoreError::Artifact(ArtifactError::Io {
            reason: format!("{}: {e}", path.display()),
        })
    })
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

impl Flow {
    /// Serializes this flow into a self-contained artifact image
    /// (netlist + config + backend + encoded program + stats + compile
    /// report) with magic, version and checksum.
    ///
    /// The image is the one-layer model this flow is
    /// ([`CompiledModel::from`]): byte for byte what
    /// [`CompiledModel::to_artifact_bytes`] writes for it, so
    /// [`CompiledModel::load`] reads it and a delta made against either
    /// applies to both.
    ///
    /// # Errors
    ///
    /// Propagates program-encoding failures; see
    /// [`encode_program`].
    pub fn to_artifact_bytes(&self) -> Result<Vec<u8>, CoreError> {
        let name = self.netlist.name();
        encode_model(name, &self.config, std::iter::once((name, 1, 1, self)))
    }

    /// Reconstructs a servable flow from [`Flow::to_artifact_bytes`]
    /// output: a one-layer model image whose model and layer are both
    /// named after the netlist and replicated once, as a flow writes it.
    /// So the loaded flow writes the same image back, and a delta made
    /// against the file applies to it.
    ///
    /// The loaded flow serves bit-identically to the original on either
    /// [`Backend`]; its [`Flow::artifacts`] is `None` (intermediate
    /// compiler state does not travel) and its [`Flow::source`] is the
    /// mapped netlist.
    ///
    /// # Errors
    ///
    /// Typed [`ArtifactError`]s via [`CoreError::Artifact`] for any
    /// corruption, and [`ArtifactError::Malformed`] for an image of a
    /// model with more (or fewer) than one layer, or of a one-layer
    /// model that is not a flow's own (its names and counts would be
    /// lost: load it with [`CompiledModel::from_artifact_bytes`]);
    /// never panics on untrusted bytes.
    pub fn from_artifact_bytes(bytes: &[u8]) -> Result<Flow, CoreError> {
        let (name, _, layers) = decode_model(bytes)?;
        let [(layer, blocks, sites, flow)] =
            <[LoadedLayer; 1]>::try_from(layers).map_err(|layers| {
                malformed(format!(
                    "a flow is a one-layer model, but this image holds {} layers",
                    layers.len()
                ))
            })?;
        let own = flow.netlist.name();
        for (field, value) in [("model name", &name), ("layer name", &layer)] {
            if value != own {
                return Err(malformed(format!(
                    "not a flow's image: its {field} is `{value}`, not the netlist's `{own}`"
                )));
            }
        }
        for (field, value) in [("blocks", blocks), ("sites", sites)] {
            if value != 1 {
                return Err(malformed(format!(
                    "not a flow's image: its layer has {field} = {value}, not 1"
                )));
            }
        }
        Ok(flow)
    }

    /// Writes the artifact image to `path`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem failure, plus anything
    /// [`Flow::to_artifact_bytes`] reports.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CoreError> {
        write_file(path.as_ref(), &self.to_artifact_bytes()?)
    }

    /// Reads an artifact image from `path`; see
    /// [`Flow::from_artifact_bytes`].
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem failure, plus anything
    /// [`Flow::from_artifact_bytes`] reports.
    pub fn load(path: impl AsRef<Path>) -> Result<Flow, CoreError> {
        Flow::from_artifact_bytes(&read_file(path.as_ref())?)
    }
}

impl CompiledModel {
    /// Serializes the whole model — every layer's flow artifact plus the
    /// replication counts — into one container image.
    ///
    /// # Errors
    ///
    /// See [`Flow::to_artifact_bytes`].
    pub fn to_artifact_bytes(&self) -> Result<Vec<u8>, CoreError> {
        let layers = self.layers().iter();
        let layers = layers.map(|l| (l.name(), l.blocks(), l.sites(), l.flow()));
        let bytes = encode_model(self.name(), self.config(), layers)?;
        self.checksum.get_or_init(|| image_checksum(&bytes));
        Ok(bytes)
    }

    /// Reconstructs a servable model from
    /// [`CompiledModel::to_artifact_bytes`] or [`Flow::to_artifact_bytes`]
    /// output. Layer engines are rebuilt lazily on the first
    /// [`CompiledModel::infer`].
    ///
    /// # Errors
    ///
    /// Typed [`ArtifactError`]s via [`CoreError::Artifact`]; never
    /// panics on untrusted bytes.
    pub fn from_artifact_bytes(bytes: &[u8]) -> Result<CompiledModel, CoreError> {
        let (name, config, layers) = decode_model(bytes)?;
        if layers.is_empty() {
            return Err(malformed("a model artifact needs at least one layer"));
        }
        let layers = layers.into_iter();
        let layers = layers.map(|(name, blocks, sites, flow)| {
            CompiledLayer::from_loaded(name, blocks, sites, flow)
        });
        let model = CompiledModel::from_parts(name, config, layers.collect());
        model.checksum.get_or_init(|| image_checksum(bytes));
        Ok(model)
    }

    /// Writes the model artifact to `path`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem failure, plus anything
    /// [`CompiledModel::to_artifact_bytes`] reports.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CoreError> {
        write_file(path.as_ref(), &self.to_artifact_bytes()?)
    }

    /// Reads a model artifact from `path`; see
    /// [`CompiledModel::from_artifact_bytes`].
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem failure, plus anything
    /// [`CompiledModel::from_artifact_bytes`] reports.
    pub fn load(path: impl AsRef<Path>) -> Result<CompiledModel, CoreError> {
        CompiledModel::from_artifact_bytes(&read_file(path.as_ref())?)
    }
}

// ---------------------------------------------------------------------------
// Patch deltas (`.lbnnp`)
// ---------------------------------------------------------------------------

/// One cell replacement inside a [`PatchDelta`]: layer `layer`,
/// mapped-netlist node `node`, new function `op`. A flow is layer 0 of
/// its one-layer model, so a flow's records all name layer 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchRecord {
    /// Layer index the cell lives in (0 for a flow).
    pub layer: u32,
    /// Stable cell id: the node's index in the layer's mapped netlist.
    pub node: NodeId,
    /// The replacement logic function.
    pub op: Op,
}

/// A versioned artifact **delta**: the wire form of a
/// [`PatchSet`], bound to the exact base artifact it was made against.
///
/// ## Wire layout (`.lbnnp`)
///
/// ```text
/// ┌────────────┬─────────┬───────────────┬───────┬─────────────────┬──────────┐
/// │ magic      │ version │ base checksum │ count │ records         │ checksum │
/// │ "LBNNPTCH" │ u32     │ u64           │ u32   │ (u32,u32,u8)×N  │ u64 FNV  │
/// └────────────┴─────────┴───────────────┴───────┴─────────────────┴──────────┘
/// ```
///
/// Each record is `(layer, node, op code)`. The base checksum is the
/// FNV-1a trailer of the base `.lbnn` artifact image
/// ([`Flow::artifact_checksum`]); applying a delta to any other
/// artifact fails with [`ArtifactError::BaseMismatch`] instead of
/// silently rewriting the wrong cells. The trailing checksum covers
/// everything before it, so corruption surfaces as typed errors —
/// never a panic, never a misapplied patch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchDelta {
    /// FNV-1a checksum of the base artifact image this delta patches.
    pub base_checksum: u64,
    /// The cell replacements, in (layer, node) order.
    pub records: Vec<PatchRecord>,
}

impl PatchDelta {
    /// Serializes this delta into `.lbnnp` wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(&PATCH_MAGIC);
        w.put_u32(PATCH_VERSION);
        w.put_u64(self.base_checksum);
        w.put_u32(self.records.len() as u32);
        for r in &self.records {
            w.put_u32(r.layer);
            w.put_u32(r.node.index() as u32);
            w.put_u8(r.op.code());
        }
        let mut out = w.into_bytes();
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses `.lbnnp` wire bytes.
    ///
    /// # Errors
    ///
    /// The most specific typed [`ArtifactError`]: wrong magic →
    /// [`BadMagic`](ArtifactError::BadMagic), unknown version →
    /// [`UnsupportedVersion`](ArtifactError::UnsupportedVersion), short
    /// image → [`Truncated`](ArtifactError::Truncated), flipped bytes →
    /// [`ChecksumMismatch`](ArtifactError::ChecksumMismatch), bad op
    /// code or trailing garbage →
    /// [`Malformed`](ArtifactError::Malformed). Never panics on
    /// untrusted bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<PatchDelta, CoreError> {
        const HEADER: usize = 8 + 4 + 8 + 4;
        const RECORD: usize = 4 + 4 + 1;
        if bytes.len() >= 8 && bytes[..8] != PATCH_MAGIC {
            return Err(CoreError::Artifact(ArtifactError::BadMagic));
        }
        if bytes.len() < HEADER + 8 {
            return Err(CoreError::Artifact(ArtifactError::Truncated {
                expected: HEADER + 8,
                got: bytes.len(),
            }));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != PATCH_VERSION {
            return Err(CoreError::Artifact(ArtifactError::UnsupportedVersion {
                found: version,
                supported: PATCH_VERSION,
            }));
        }
        let base_checksum = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let count = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes")) as usize;
        let expected = count
            .checked_mul(RECORD)
            .and_then(|n| n.checked_add(HEADER + 8))
            .ok_or_else(|| malformed("patch record count overflows"))?;
        if bytes.len() < expected {
            return Err(CoreError::Artifact(ArtifactError::Truncated {
                expected,
                got: bytes.len(),
            }));
        }
        if bytes.len() > expected {
            return Err(malformed(format!(
                "{} trailing bytes after patch delta",
                bytes.len() - expected
            )));
        }
        let stored = u64::from_le_bytes(bytes[expected - 8..].try_into().expect("8 bytes"));
        let computed = fnv1a64(&bytes[..expected - 8]);
        if stored != computed {
            return Err(CoreError::Artifact(ArtifactError::ChecksumMismatch {
                stored,
                computed,
            }));
        }
        let mut records = Vec::with_capacity(count);
        let mut at = HEADER;
        for _ in 0..count {
            let layer = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
            let node = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
            let code = bytes[at + 8];
            let op = Op::from_code(code)
                .ok_or_else(|| malformed(format!("unknown op code {code} in patch record")))?;
            records.push(PatchRecord {
                layer,
                node: NodeId::new(node),
                op,
            });
            at += RECORD;
        }
        Ok(PatchDelta {
            base_checksum,
            records,
        })
    }
}

/// The stored FNV-1a trailer of a serialized artifact image — the value
/// patch deltas bind to.
fn image_checksum(image: &[u8]) -> u64 {
    debug_assert!(image.len() >= 8, "artifact images always carry a trailer");
    u64::from_le_bytes(image[image.len() - 8..].try_into().expect("8 bytes"))
}

/// Validates per-layer patch sets against the layers' mapped `netlists`
/// and serializes them as a `.lbnnp` delta bound to `base`, the
/// artifact checksum (asked for only once the sets are valid).
fn encode_delta<'a>(
    netlists: &[&Netlist],
    patches: impl IntoIterator<Item = (usize, &'a PatchSet)>,
    base: impl FnOnce() -> Result<u64, CoreError>,
) -> Result<Vec<u8>, CoreError> {
    let mut records = Vec::new();
    for (layer, set) in patches {
        let Some(netlist) = netlists.get(layer) else {
            return Err(CoreError::Artifact(ArtifactError::UnknownCell {
                layer: layer as u32,
                node: set.iter().next().map_or(0, |(id, _)| id.index() as u32),
            }));
        };
        set.validate(netlist)?;
        records.extend(set.iter().map(|(node, op)| PatchRecord {
            layer: layer as u32,
            node,
            op,
        }));
    }
    let delta = PatchDelta {
        base_checksum: base()?,
        records,
    };
    Ok(delta.to_bytes())
}

/// Parses a `.lbnnp` delta, checks that it binds to `base` (the
/// artifact checksum, asked for only once the delta parses), and
/// converts its records into one validated [`PatchSet`] per layer of
/// `netlists`, mapping validation failures onto
/// [`ArtifactError::UnknownCell`] / [`ArtifactError::Malformed`].
fn decode_delta(
    bytes: &[u8],
    netlists: &[&Netlist],
    base: impl FnOnce() -> Result<u64, CoreError>,
) -> Result<Vec<PatchSet>, CoreError> {
    let delta = PatchDelta::from_bytes(bytes)?;
    let found = base()?;
    if delta.base_checksum != found {
        return Err(CoreError::Artifact(ArtifactError::BaseMismatch {
            expected: delta.base_checksum,
            found,
        }));
    }
    let mut sets: Vec<PatchSet> = vec![PatchSet::new(); netlists.len()];
    for r in &delta.records {
        let layer = r.layer as usize;
        if layer >= netlists.len() {
            return Err(CoreError::Artifact(ArtifactError::UnknownCell {
                layer: r.layer,
                node: r.node.index() as u32,
            }));
        }
        sets[layer].set(r.node, r.op);
    }
    for (layer, (set, netlist)) in sets.iter().zip(netlists).enumerate() {
        set.validate(netlist).map_err(|e| match e {
            NetlistError::InvalidNode { id } | NetlistError::BadPatch { id, .. } => {
                CoreError::Artifact(ArtifactError::UnknownCell {
                    layer: layer as u32,
                    node: id.index() as u32,
                })
            }
            other => malformed(other.to_string()),
        })?;
    }
    Ok(sets)
}

impl Flow {
    /// The FNV-1a checksum of this flow's serialized artifact image —
    /// the identity patch deltas bind to. Stable across
    /// save/load round trips, and equal to the checksum of the
    /// one-layer model this flow is ([`CompiledModel::from`]).
    ///
    /// Unlike [`CompiledModel::artifact_checksum`] this is not cached:
    /// a flow's fields are public, so any edit can change the image, and
    /// every call serializes the flow again.
    ///
    /// # Errors
    ///
    /// See [`Flow::to_artifact_bytes`].
    pub fn artifact_checksum(&self) -> Result<u64, CoreError> {
        Ok(image_checksum(&self.to_artifact_bytes()?))
    }

    /// Serializes `patches` as a `.lbnnp` delta bound to this flow's
    /// artifact checksum: its records name layer 0, so the delta applies
    /// to this flow and to its one-layer model alike.
    ///
    /// # Errors
    ///
    /// [`CoreError::Netlist`] if the patch set is invalid for this
    /// flow's mapped netlist, plus anything
    /// [`Flow::artifact_checksum`] reports.
    pub fn make_delta(&self, patches: &PatchSet) -> Result<Vec<u8>, CoreError> {
        encode_delta(&[&self.netlist], [(0, patches)], || {
            self.artifact_checksum()
        })
    }

    /// Applies a `.lbnnp` delta to this flow, returning the patched
    /// flow ([`Flow::apply_patches`]).
    ///
    /// # Errors
    ///
    /// Everything [`PatchDelta::from_bytes`] reports, plus
    /// [`ArtifactError::BaseMismatch`] when the delta was made against
    /// a different artifact and [`ArtifactError::UnknownCell`] when it
    /// names a cell this flow does not have.
    pub fn apply_delta(&self, bytes: &[u8]) -> Result<Flow, CoreError> {
        let sets = decode_delta(bytes, &[&self.netlist], || self.artifact_checksum())?;
        self.apply_patches(&sets[0])
    }
}

impl CompiledModel {
    /// The FNV-1a checksum of this model's serialized artifact image —
    /// the identity patch deltas bind to.
    ///
    /// The model is immutable, so the value is learned once and shared
    /// by its clones: a loaded model takes the trailer of the image it
    /// was read from, a saved one the trailer it wrote, and any other
    /// serializes itself on the first call only. [`make_delta`] and
    /// [`apply_delta`] therefore serialize a model at most once.
    ///
    /// [`make_delta`]: CompiledModel::make_delta
    /// [`apply_delta`]: CompiledModel::apply_delta
    ///
    /// # Errors
    ///
    /// See [`CompiledModel::to_artifact_bytes`].
    pub fn artifact_checksum(&self) -> Result<u64, CoreError> {
        match self.checksum.get() {
            Some(&checksum) => Ok(checksum),
            None => Ok(image_checksum(&self.to_artifact_bytes()?)),
        }
    }

    /// The mapped netlist of every layer, in order: what patch records
    /// address.
    fn layer_netlists(&self) -> Vec<&Netlist> {
        self.layers().iter().map(|l| &l.flow().netlist).collect()
    }

    /// Serializes per-layer patch sets as one `.lbnnp` delta bound to
    /// this model's artifact checksum. `patches` pairs each layer index
    /// with the patch set for that layer's mapped netlist.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::UnknownCell`] for a layer index this model does
    /// not have, [`CoreError::Netlist`] for patch sets invalid against
    /// their layer, plus anything [`CompiledModel::artifact_checksum`]
    /// reports.
    pub fn make_delta(&self, patches: &[(usize, PatchSet)]) -> Result<Vec<u8>, CoreError> {
        let patches = patches.iter().map(|(layer, set)| (*layer, set));
        encode_delta(&self.layer_netlists(), patches, || self.artifact_checksum())
    }

    /// Applies a `.lbnnp` delta to this model, returning the patched
    /// model (each touched layer re-wrapped around its patched flow;
    /// engines rebuild lazily on first use).
    ///
    /// # Errors
    ///
    /// Everything [`PatchDelta::from_bytes`] reports, plus
    /// [`ArtifactError::BaseMismatch`] when the delta was made against
    /// a different artifact and [`ArtifactError::UnknownCell`] when it
    /// names a layer or cell this model does not have.
    pub fn apply_delta(&self, bytes: &[u8]) -> Result<CompiledModel, CoreError> {
        let sets = decode_delta(bytes, &self.layer_netlists(), || self.artifact_checksum())?;
        let mut layers = Vec::with_capacity(self.layers().len());
        for (layer, set) in self.layers().iter().zip(&sets) {
            let flow = if set.is_empty() {
                layer.flow().clone()
            } else {
                layer.flow().apply_patches(set)?
            };
            layers.push(CompiledLayer::from_loaded(
                layer.name().to_string(),
                layer.blocks(),
                layer.sites(),
                flow,
            ));
        }
        Ok(CompiledModel::from_parts(
            self.name().to_string(),
            *self.config(),
            layers,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbnn_netlist::random::RandomDag;
    use lbnn_netlist::Lanes;

    fn compile(seed: u64, backend: Backend) -> Flow {
        let nl = RandomDag::strict(14, 5, 10).outputs(4).generate(seed);
        Flow::builder(&nl)
            .config(LpuConfig::new(6, 4))
            .backend(backend)
            .compile()
            .unwrap()
    }

    fn batch(width: usize, lanes: usize, seed: u64) -> Vec<Lanes> {
        (0..width)
            .map(|i| {
                let bits: Vec<bool> = (0..lanes)
                    .map(|l| (seed + i as u64 * 31 + l as u64).is_multiple_of(3))
                    .collect();
                Lanes::from_bools(&bits)
            })
            .collect()
    }

    #[test]
    fn flow_round_trip_serves_identically_on_both_backends() {
        for backend in [Backend::Scalar, Backend::BitSliced { words: 1 }] {
            let flow = compile(3, backend);
            let bytes = flow.to_artifact_bytes().unwrap();
            let loaded = Flow::from_artifact_bytes(&bytes).unwrap();
            assert_eq!(loaded.backend, backend);
            assert_eq!(loaded.stats, flow.stats);
            assert_eq!(loaded.netlist, flow.netlist);
            assert_eq!(loaded.report, flow.report);
            assert!(loaded.artifacts.is_none());
            let mut original = flow.engine().unwrap();
            let mut reloaded = loaded.engine().unwrap();
            for lanes in [1usize, 64, 100] {
                let b = batch(flow.program.num_inputs, lanes, 17);
                assert_eq!(
                    original.run_batch(&b).unwrap().outputs,
                    reloaded.run_batch(&b).unwrap().outputs,
                    "{backend} lanes {lanes}"
                );
            }
        }
    }

    #[test]
    fn every_slice_width_round_trips() {
        for words in [1usize, 2, 4, 8] {
            let flow = compile(words as u64, Backend::BitSliced { words });
            let loaded = Flow::from_artifact_bytes(&flow.to_artifact_bytes().unwrap()).unwrap();
            assert_eq!(loaded.backend, Backend::BitSliced { words });
            let mut original = flow.engine().unwrap();
            let mut reloaded = loaded.engine().unwrap();
            let lanes = 64 * words + 5; // tailed multi-word batch
            let b = batch(flow.program.num_inputs, lanes, 23);
            assert_eq!(
                original.run_batch(&b).unwrap().outputs,
                reloaded.run_batch(&b).unwrap().outputs,
                "words {words}"
            );
        }
    }

    #[test]
    fn unsupported_width_in_artifact_is_a_typed_error() {
        // A flow whose backend field was corrupted to an unsupported
        // width still serializes (the writer records what it is given),
        // but loading reports the dedicated typed error.
        let mut flow = compile(2, Backend::BitSliced { words: 1 });
        flow.backend = Backend::BitSliced { words: 5 };
        let bytes = flow.to_artifact_bytes().unwrap();
        assert!(matches!(
            Flow::from_artifact_bytes(&bytes),
            Err(CoreError::Artifact(ArtifactError::UnsupportedWidth {
                words: 5
            }))
        ));
        // A width beyond the u8 record must fail to *save* — truncating
        // it would silently serialize a different, valid width.
        flow.backend = Backend::BitSliced { words: 257 };
        let err = flow.to_artifact_bytes().unwrap_err();
        assert!(matches!(err, CoreError::BadConfig { .. }));
        assert!(err.to_string().contains("[1, 2, 4, 8, 16]"), "{err}");
    }

    #[test]
    fn loaded_flow_still_verifies_against_its_netlist() {
        let flow = compile(9, Backend::Scalar);
        let loaded = Flow::from_artifact_bytes(&flow.to_artifact_bytes().unwrap()).unwrap();
        // Source collapses to the mapped netlist, which is functionally
        // equivalent — end-to-end verification still holds.
        loaded.verify_against_netlist(5).unwrap();
    }

    #[test]
    fn corruption_produces_the_most_specific_typed_error() {
        let flow = compile(1, Backend::Scalar);
        let bytes = flow.to_artifact_bytes().unwrap();

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            Flow::from_artifact_bytes(&bad),
            Err(CoreError::Artifact(ArtifactError::BadMagic))
        ));

        // Unsupported version (checked before the checksum).
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Flow::from_artifact_bytes(&bad),
            Err(CoreError::Artifact(ArtifactError::UnsupportedVersion {
                found: 99,
                supported: ARTIFACT_VERSION,
            }))
        ));

        // Truncation at any point is typed, never a panic.
        for cut in [0, 5, 12, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(
                    Flow::from_artifact_bytes(&bytes[..cut]),
                    Err(CoreError::Artifact(ArtifactError::Truncated { .. })),
                ),
                "cut {cut}"
            );
        }

        // A flipped payload byte breaks the checksum.
        let mut bad = bytes.clone();
        let mid = 21 + (bytes.len() - 29) / 2;
        bad[mid] ^= 0x01;
        assert!(matches!(
            Flow::from_artifact_bytes(&bad),
            Err(CoreError::Artifact(ArtifactError::ChecksumMismatch { .. }))
        ));

        // A flipped checksum byte is also a checksum mismatch.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            Flow::from_artifact_bytes(&bad),
            Err(CoreError::Artifact(ArtifactError::ChecksumMismatch { .. }))
        ));

        // Trailing garbage is rejected.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(matches!(
            Flow::from_artifact_bytes(&bad),
            Err(CoreError::Artifact(ArtifactError::Malformed { .. }))
        ));

        // A format-v5 image, of either former kind, is refused by both
        // loaders before anything else is read.
        let mut old = bytes.clone();
        old[8..12].copy_from_slice(&5u32.to_le_bytes());
        let v5 = ArtifactError::UnsupportedVersion {
            found: 5,
            supported: ARTIFACT_VERSION,
        };
        assert!(matches!(Flow::from_artifact_bytes(&old), Err(CoreError::Artifact(e)) if e == v5));
        assert!(matches!(
            CompiledModel::from_artifact_bytes(&old),
            Err(CoreError::Artifact(e)) if e == v5
        ));
    }

    #[test]
    fn a_saved_flow_loads_as_its_one_layer_model() {
        let flow = compile(16, Backend::BitSliced { words: 2 });
        let path =
            std::env::temp_dir().join(format!("lbnn-artifact-model-{}.lbnn", std::process::id()));
        flow.save(&path).unwrap();
        let file = std::fs::read(&path).unwrap();
        let model = CompiledModel::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(model.layers().len(), 1);
        let layer = &model.layers()[0];
        assert_eq!((layer.blocks(), layer.sites()), (1, 1));
        assert_eq!(layer.name(), flow.netlist.name());
        assert_eq!(model.name(), flow.netlist.name());
        // One image per compile: the file, the loaded model's image and
        // the converted flow's image are the same bytes.
        assert_eq!(model.to_artifact_bytes().unwrap(), file);
        let converted = CompiledModel::from(flow.clone());
        assert_eq!(converted.to_artifact_bytes().unwrap(), file);
        let mut engine = flow.engine().unwrap();
        for lanes in [1usize, 64, 130] {
            let b = batch(flow.program.num_inputs, lanes, 29);
            let want = engine.run_batch(&b).unwrap().outputs;
            assert_eq!(
                model.infer(&b).unwrap().outputs(),
                &want[..],
                "lanes {lanes}"
            );
            assert_eq!(
                converted.infer(&b).unwrap().outputs(),
                &want[..],
                "lanes {lanes}"
            );
        }
    }

    #[test]
    fn a_flow_delta_applies_to_its_model() {
        let flow = compile(17, Backend::BitSliced { words: 1 });
        let patches = negating_patches(&flow, 3);
        let delta = flow.make_delta(&patches).unwrap();
        let model = CompiledModel::from_artifact_bytes(&flow.to_artifact_bytes().unwrap()).unwrap();
        assert_eq!(
            model.artifact_checksum().unwrap(),
            flow.artifact_checksum().unwrap()
        );
        // The model writes the same delta for the same cells of layer 0.
        assert_eq!(model.make_delta(&[(0, patches.clone())]).unwrap(), delta);
        let patched_model = model.apply_delta(&delta).unwrap();
        let patched_flow = flow.apply_delta(&delta).unwrap();
        assert_eq!(
            patched_model.to_artifact_bytes().unwrap(),
            patched_flow.to_artifact_bytes().unwrap()
        );
        let b = batch(flow.program.num_inputs, 100, 43);
        assert_eq!(
            patched_model.infer(&b).unwrap().outputs(),
            &patched_flow
                .engine()
                .unwrap()
                .run_batch(&b)
                .unwrap()
                .outputs[..]
        );
    }

    /// `image` with the u64 at `at` replaced and the trailer recomputed,
    /// as anyone can: only the structural checks stand in the way.
    fn forge(image: &[u8], at: usize, value: u64) -> Vec<u8> {
        let mut forged = image.to_vec();
        forged[at..at + 8].copy_from_slice(&value.to_le_bytes());
        let body = forged.len() - 8;
        let checksum = fnv1a64(&forged[..body]);
        forged[body..].copy_from_slice(&checksum.to_le_bytes());
        forged
    }

    #[test]
    fn a_forged_program_shape_fails_fast_through_the_loader() {
        let flow = compile(5, Backend::Scalar);
        let image = flow.to_artifact_bytes().unwrap();
        // The encoded program opens with m, n, queue depth, total cycles.
        let p = &flow.program;
        let header: Vec<u8> = [p.m, p.n, p.queue_depth, p.total_cycles]
            .iter()
            .flat_map(|&v| (v as u64).to_le_bytes())
            .collect();
        let at = image
            .windows(header.len())
            .position(|w| w == header)
            .expect("program header in the image");
        for (field, value) in [(3, 1u64 << 62), (3, u64::MAX), (0, 1 << 40), (0, u64::MAX)] {
            let forged = forge(&image, at + 8 * field, value);
            let start = std::time::Instant::now();
            let result = CompiledModel::from_artifact_bytes(&forged);
            assert!(
                matches!(
                    result,
                    Err(CoreError::Artifact(ArtifactError::Malformed { .. }))
                ),
                "field {field} = {value}: {result:?}"
            );
            // A walk over the declared cycles or an allocation per
            // declared LPE would take seconds or abort; a check takes
            // microseconds.
            assert!(start.elapsed().as_secs_f64() < 0.5, "{:?}", start.elapsed());
        }
    }

    #[test]
    fn a_model_learns_its_checksum_once_and_shares_it() {
        let model = CompiledModel::from(compile(21, Backend::BitSliced { words: 1 }));
        let clone = model.clone();
        assert!(
            model.checksum.get().is_none(),
            "a compile serializes nothing"
        );
        let image = model.to_artifact_bytes().unwrap();
        assert_eq!(clone.checksum.get(), Some(&image_checksum(&image)));

        // A loaded model takes its file's trailer without re-serializing.
        let loaded = CompiledModel::from_artifact_bytes(&image).unwrap();
        assert_eq!(loaded.checksum.get(), Some(&image_checksum(&image)));
        assert_eq!(
            loaded.artifact_checksum().unwrap(),
            model.artifact_checksum().unwrap()
        );

        // A patched model is a new image with a checksum of its own.
        let patches = negating_patches(loaded.layers()[0].flow(), 2);
        let patched = loaded
            .apply_delta(&loaded.make_delta(&[(0, patches)]).unwrap())
            .unwrap();
        assert!(patched.checksum.get().is_none());
        let checksum = patched.artifact_checksum().unwrap();
        assert_ne!(checksum, loaded.artifact_checksum().unwrap());
        assert_eq!(
            checksum,
            image_checksum(&patched.to_artifact_bytes().unwrap())
        );
    }

    /// A byte past a layer's partition count but inside its declared
    /// flow payload is the flow payload's own error, not the model's.
    #[test]
    fn a_byte_past_the_partition_count_is_malformed() {
        let flow = compile(18, Backend::Scalar);
        let name = flow.netlist.name();
        let mut payload = encode_flow_payload(&flow).unwrap();
        payload.push(0);
        let mut w = ByteWriter::new();
        w.put_str(name);
        write_config(&mut w, &flow.config);
        w.put_u32(1);
        w.put_str(name);
        w.put_u64(1);
        w.put_u64(1);
        w.put_u64(payload.len() as u64);
        w.put_bytes(&payload);
        let err = Flow::from_artifact_bytes(&wrap(&w.into_bytes())).unwrap_err();
        assert!(
            matches!(&err, CoreError::Artifact(ArtifactError::Malformed { reason }) if reason.contains("after flow payload")),
            "{err}"
        );
    }

    #[test]
    fn a_flow_is_exactly_one_layer() {
        let config = LpuConfig::new(6, 4);
        let layer = |seed| {
            let nl = RandomDag::strict(14, 5, 10).outputs(4).generate(seed);
            crate::model::LayerSpec::block(format!("l{seed}"), nl)
        };
        let model = CompiledModel::compile(
            "two",
            vec![layer(1), layer(2)],
            &config,
            &crate::flow::FlowOptions::default(),
        )
        .unwrap();
        let err = Flow::from_artifact_bytes(&model.to_artifact_bytes().unwrap()).unwrap_err();
        assert!(
            matches!(&err, CoreError::Artifact(ArtifactError::Malformed { reason }) if reason.contains("holds 2 layers")),
            "{err}"
        );
    }

    /// A one-layer model loads as a flow only if the image is a flow's
    /// own: a flow would drop any other name or count, so saving it
    /// would write another image and the file's deltas would not apply.
    #[test]
    fn a_flow_refuses_a_one_layer_model_it_would_rewrite() {
        let flow = compile(19, Backend::BitSliced { words: 1 });
        let own = flow.netlist.name();
        let image = |model: &str, layer: &str, blocks, sites| {
            encode_model(
                model,
                &flow.config,
                std::iter::once((layer, blocks, sites, &flow)),
            )
            .unwrap()
        };
        let bytes = image(own, own, 1, 1);
        assert_eq!(bytes, flow.to_artifact_bytes().unwrap());
        let loaded = Flow::from_artifact_bytes(&bytes).unwrap();
        assert_eq!(loaded.to_artifact_bytes().unwrap(), bytes);
        for (bytes, field) in [
            (image("named", own, 1, 1), "model name"),
            (image(own, "L1", 1, 1), "layer name"),
            (image(own, own, 2, 1), "blocks"),
            (image(own, own, 1, 3), "sites"),
        ] {
            let err = Flow::from_artifact_bytes(&bytes).unwrap_err();
            assert!(
                matches!(&err, CoreError::Artifact(ArtifactError::Malformed { reason }) if reason.contains(field)),
                "{field}: {err}"
            );
            // The model it is still loads, and writes the file back.
            let model = CompiledModel::from_artifact_bytes(&bytes).unwrap();
            assert_eq!(model.to_artifact_bytes().unwrap(), bytes);
        }
        // A model compiled from a named layer is one such image.
        let nl = RandomDag::strict(14, 5, 10).outputs(4).generate(19);
        let model = CompiledModel::compile(
            "named",
            vec![crate::model::LayerSpec::block("L1", nl)],
            &flow.config,
            &crate::flow::FlowOptions::default(),
        )
        .unwrap();
        let err = Flow::from_artifact_bytes(&model.to_artifact_bytes().unwrap()).unwrap_err();
        assert!(
            matches!(&err, CoreError::Artifact(ArtifactError::Malformed { reason }) if reason.contains("model name is `named`")),
            "{err}"
        );
    }

    #[test]
    fn every_single_byte_flip_is_survivable() {
        let flow = compile(4, Backend::Scalar);
        let bytes = flow.to_artifact_bytes().unwrap();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xA5;
            // Must return (any) typed error or a valid flow — no panic.
            let _ = Flow::from_artifact_bytes(&bad);
        }
    }

    #[test]
    fn file_round_trip() {
        let flow = compile(6, Backend::BitSliced { words: 1 });
        let path =
            std::env::temp_dir().join(format!("lbnn-artifact-test-{}.lbnn", std::process::id()));
        flow.save(&path).unwrap();
        let loaded = Flow::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.stats, flow.stats);
        let b = batch(flow.program.num_inputs, 64, 3);
        assert_eq!(
            flow.engine().unwrap().run_batch(&b).unwrap().outputs,
            loaded.engine().unwrap().run_batch(&b).unwrap().outputs
        );
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = Flow::load("/nonexistent/lbnn/artifact.bin").unwrap_err();
        assert!(matches!(err, CoreError::Artifact(ArtifactError::Io { .. })));
    }

    /// Picks `n` two-input gates of the mapped netlist and flips each to
    /// its negated form.
    fn negating_patches(flow: &Flow, n: usize) -> PatchSet {
        let mut patches = PatchSet::new();
        for (id, node) in flow.netlist.iter() {
            if node.op().is_gate2() && patches.len() < n {
                patches.set(id, node.op().negated().unwrap());
            }
        }
        assert_eq!(patches.len(), n);
        patches
    }

    #[test]
    fn patch_delta_wire_round_trip() {
        let delta = PatchDelta {
            base_checksum: 0xDEAD_BEEF_CAFE_F00D,
            records: vec![
                PatchRecord {
                    layer: 0,
                    node: lbnn_netlist::NodeId::new(7),
                    op: Op::Nand,
                },
                PatchRecord {
                    layer: 3,
                    node: lbnn_netlist::NodeId::new(11),
                    op: Op::Not,
                },
            ],
        };
        let bytes = delta.to_bytes();
        assert_eq!(&bytes[..8], b"LBNNPTCH");
        assert_eq!(PatchDelta::from_bytes(&bytes).unwrap(), delta);
        // An empty delta round-trips too.
        let empty = PatchDelta {
            base_checksum: 1,
            records: vec![],
        };
        assert_eq!(PatchDelta::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn flow_delta_applies_and_matches_direct_patching() {
        let flow = compile(12, Backend::BitSliced { words: 1 });
        let patches = negating_patches(&flow, 3);
        let bytes = flow.make_delta(&patches).unwrap();
        let via_delta = flow.apply_delta(&bytes).unwrap();
        let direct = flow.apply_patches(&patches).unwrap();
        assert_eq!(via_delta.netlist, direct.netlist);
        let b = batch(flow.program.num_inputs, 100, 41);
        assert_eq!(
            via_delta.engine().unwrap().run_batch(&b).unwrap().outputs,
            direct.engine().unwrap().run_batch(&b).unwrap().outputs,
        );
        // The patched flow still passes end-to-end verification.
        via_delta.verify_against_netlist(8).unwrap();
    }

    #[test]
    fn delta_binds_to_its_base_artifact() {
        let flow = compile(13, Backend::Scalar);
        let other = compile(14, Backend::Scalar);
        let patches = negating_patches(&flow, 2);
        let bytes = flow.make_delta(&patches).unwrap();
        assert!(matches!(
            other.apply_delta(&bytes),
            Err(CoreError::Artifact(ArtifactError::BaseMismatch { .. }))
        ));
        // Checksums are stable across a save/load round trip, so the
        // delta still applies to the reloaded flow.
        let reloaded = Flow::from_artifact_bytes(&flow.to_artifact_bytes().unwrap()).unwrap();
        assert_eq!(
            reloaded.artifact_checksum().unwrap(),
            flow.artifact_checksum().unwrap()
        );
        reloaded.apply_delta(&bytes).unwrap();
    }

    #[test]
    fn delta_corruption_is_typed_and_unknown_cells_are_rejected() {
        let flow = compile(15, Backend::Scalar);
        let patches = negating_patches(&flow, 2);
        let bytes = flow.make_delta(&patches).unwrap();

        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            flow.apply_delta(&bad),
            Err(CoreError::Artifact(ArtifactError::BadMagic))
        ));
        for cut in [0, 7, 12, bytes.len() - 1] {
            assert!(matches!(
                flow.apply_delta(&bytes[..cut]),
                Err(CoreError::Artifact(ArtifactError::Truncated { .. }))
            ));
        }
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            flow.apply_delta(&bad),
            Err(CoreError::Artifact(ArtifactError::UnsupportedVersion {
                found: 9,
                supported: PATCH_VERSION,
            }))
        ));
        let mut bad = bytes.clone();
        bad[25] ^= 0x40; // a record byte
        assert!(matches!(
            flow.apply_delta(&bad),
            Err(CoreError::Artifact(ArtifactError::ChecksumMismatch { .. }))
        ));
        // No corruption pattern panics.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xA5;
            let _ = flow.apply_delta(&bad);
        }

        // A record naming a cell the base does not have is rejected
        // (valid envelope, correct base, bogus cell id).
        let unknown = PatchDelta {
            base_checksum: flow.artifact_checksum().unwrap(),
            records: vec![PatchRecord {
                layer: 0,
                node: lbnn_netlist::NodeId::new(100_000),
                op: Op::Xor,
            }],
        };
        assert!(matches!(
            flow.apply_delta(&unknown.to_bytes()),
            Err(CoreError::Artifact(ArtifactError::UnknownCell {
                layer: 0,
                node: 100_000,
            }))
        ));
        // So is one naming a layer a flow artifact cannot have.
        let bad_layer = PatchDelta {
            base_checksum: flow.artifact_checksum().unwrap(),
            records: vec![PatchRecord {
                layer: 2,
                node: lbnn_netlist::NodeId::new(0),
                op: Op::Xor,
            }],
        };
        assert!(matches!(
            flow.apply_delta(&bad_layer.to_bytes()),
            Err(CoreError::Artifact(ArtifactError::UnknownCell {
                layer: 2,
                ..
            }))
        ));
    }
}

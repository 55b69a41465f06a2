//! Binary instruction encoding for the LPU.
//!
//! The instruction queues of Fig 6 store one VLIW word per (LPV, address);
//! this module defines the bit-level format, so the BRAM numbers of the
//! resource model (Table I) are grounded in a real encoding, and programs
//! can be dumped/loaded as bitstreams.
//!
//! ## Word layout (per LPV, little-endian bit order)
//!
//! ```text
//! [ per-LPE lanes: m × (1 valid + 4 opcode + 2×(2 tag + payload)) ]
//! [ route-in:      2m × (1 valid + log2(m) source)                ]
//! [ snapshot mask: 2m bits                                        ]
//! ```
//!
//! Operand payloads are `log2(2m)` bits (a port index). Input-buffer
//! operands carry **no address**: reads are strictly sequential (§V-B's
//! counter addressing — a property codegen guarantees and tests check),
//! so the decoder reconstructs addresses with a running counter. Constant
//! operands use the payload's low bit for the value.
//!
//! Each LPE lane and each route-in port is built as one integer and
//! written as one field (at most 64 bits up to `m = 2^26`); the snapshot
//! mask is written 64 ports at a time from a bitset. The bits are the
//! same as writing every sub-field on its own, so images are unchanged;
//! the decoder pulls and splits the same fields. An image declaring a
//! shape codegen never emits — an `m` past that bound, a slot shorter
//! than a word, more than `n + queue_depth` cycles — is a typed error
//! before anything is allocated or walked.
//!
//! An [`EncodedProgram`] is **self-contained**: alongside the instruction
//! words it carries the data-buffer metadata the hardware keeps outside
//! the instruction store (input-buffer layout, output taps, cycle counts),
//! so [`decode_program`] needs nothing but the image itself — the property
//! the serialized artifacts ([`crate::artifact`]) are built on.

use lbnn_netlist::{NodeId, Op};

use crate::compiler::program::{InputSlot, LpeInstr, LpuProgram, OperandSrc, OutputTap, VliwInstr};
use crate::error::{ArtifactError, CoreError};

/// Operand source tags.
const TAG_ROUTE: u64 = 0;
const TAG_SNAPSHOT: u64 = 1;
const TAG_INPUT: u64 = 2;
const TAG_CONST: u64 = 3;

/// Opcode assignments (4 bits; `Input` is not executable). The numbering
/// is [`Op::code`], which the netlist serializer shares.
fn opcode(op: Op) -> u64 {
    assert!(op != Op::Input, "inputs are ports, not instructions");
    u64::from(op.code())
}

fn op_from_code(code: u64) -> Option<Op> {
    let op = u8::try_from(code).ok().and_then(Op::from_code)?;
    if op == Op::Input {
        return None;
    }
    Some(op)
}

fn log2_ceil(x: usize) -> usize {
    usize::BITS as usize - x.max(1).next_power_of_two().leading_zeros() as usize - 1
}

/// Bit widths of the instruction word for a machine with `m` LPEs/LPV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrFormat {
    /// LPEs per LPV.
    pub m: usize,
    /// Bits per operand payload (`log2(2m)`, at least 1).
    pub payload_bits: usize,
    /// Bits per route-in source (`log2(m)`, at least 1).
    pub source_bits: usize,
}

impl InstrFormat {
    /// Format for a machine with `m` LPEs per LPV.
    pub fn new(m: usize) -> Self {
        InstrFormat {
            m,
            payload_bits: log2_ceil(2 * m).max(1),
            source_bits: log2_ceil(m).max(1),
        }
    }

    /// Bits per LPE lane: valid + opcode + two operands.
    pub fn lpe_bits(&self) -> usize {
        1 + 4 + 2 * (2 + self.payload_bits)
    }

    /// Total bits of one VLIW word.
    pub fn word_bits(&self) -> usize {
        self.m * self.lpe_bits() + 2 * self.m * (1 + self.source_bits) + 2 * self.m
    }
}

/// A bit-packed, self-contained program image.
///
/// Everything [`decode_program`] needs is in here: the instruction words
/// plus the buffer/tap metadata that lives in the LPU's data buffers
/// rather than its instruction store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedProgram {
    /// Format used.
    pub format: InstrFormat,
    /// LPVs.
    pub n: usize,
    /// Queue depth.
    pub queue_depth: usize,
    /// Total compute cycles of one pass (including output drain).
    pub total_cycles: usize,
    /// Number of primary inputs the program expects.
    pub num_inputs: usize,
    /// Input data buffer layout, read sequentially during execution.
    pub input_buffer: Vec<InputSlot>,
    /// Output taps, one per primary output.
    pub outputs: Vec<OutputTap>,
    /// `words[lpv][addr]` — `None` encodes an empty queue slot; the
    /// hardware image would store an all-zero word (valid bits clear).
    pub words: Vec<Vec<Option<Vec<u64>>>>,
}

impl EncodedProgram {
    /// Total instruction-store bits (the BRAM cost of the image).
    pub fn total_bits(&self) -> usize {
        self.n * self.queue_depth * self.format.word_bits()
    }
}

/// Largest `m` the format packs: its LPE lane (`9 + 2·log2(2m)` bits) and
/// route-in port (`1 + log2(m)` bits) each fit one 64-bit field, which is
/// how [`encode_program`] writes them and [`decode_program`] reads them.
const MAX_M: usize = 1 << 26;

/// The format of an image that declares `m` LPEs per LPV, or `Malformed`
/// if no program of this workspace has that shape — checked before any
/// width is computed (`2m` overflows near `usize::MAX`) or allocated.
pub(crate) fn image_format(m: usize) -> Result<InstrFormat, CoreError> {
    if m == 0 || m > MAX_M {
        return Err(CoreError::Artifact(ArtifactError::Malformed {
            reason: format!("image declares m = {m}, outside 1..={MAX_M}"),
        }));
    }
    Ok(InstrFormat::new(m))
}

/// Low `bits` set (`bits <= 64`).
fn mask(bits: usize) -> u64 {
    if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Little-endian bit writer over a word buffer sized up front.
struct BitWriter {
    words: Vec<u64>,
    pos: usize,
}

impl BitWriter {
    fn with_bits(bits: usize) -> Self {
        BitWriter {
            words: vec![0; bits.div_ceil(64)],
            pos: 0,
        }
    }

    /// Appends the low `bits` of `value` (a field of at most 64 bits).
    fn push(&mut self, value: u64, bits: usize) {
        debug_assert!(
            bits <= 64 && value & !mask(bits) == 0,
            "value overflows field"
        );
        let (word, off) = (self.pos / 64, self.pos % 64);
        self.words[word] |= value << off;
        if off + bits > 64 {
            self.words[word + 1] |= value >> (64 - off);
        }
        self.pos += bits;
    }
}

/// Little-endian bit reader over one queue slot. [`decode_program`]
/// checks that the slot holds a whole word before it reads, so a pull
/// never runs past the end.
struct BitReader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(words: &'a [u64]) -> Self {
        BitReader { words, pos: 0 }
    }

    /// Reads the next field of `bits <= 64` bits.
    fn pull(&mut self, bits: usize) -> u64 {
        let (word, off) = (self.pos / 64, self.pos % 64);
        let mut value = self.words[word] >> off;
        if off + bits > 64 {
            value |= self.words[word + 1] << (64 - off);
        }
        self.pos += bits;
        value & mask(bits)
    }
}

/// One operand field: the 2-bit tag, then the payload.
fn operand_field(fmt: &InstrFormat, src: OperandSrc) -> u64 {
    let (tag, payload) = match src {
        OperandSrc::Route(p) => (TAG_ROUTE, u64::from(p)),
        OperandSrc::Snapshot(p) => (TAG_SNAPSHOT, u64::from(p)),
        // Sequential counter addressing: no payload stored.
        OperandSrc::Input(_) => (TAG_INPUT, 0),
        OperandSrc::Const(v) => (TAG_CONST, u64::from(v)),
    };
    debug_assert!(payload >> fmt.payload_bits == 0, "payload overflows field");
    tag | payload << 2
}

/// One LPE lane: valid bit, opcode, operand `a`, operand `b` (an absent
/// `b` is the constant 0). An idle lane is all zeros.
fn lane_field(fmt: &InstrFormat, lpe: Option<&LpeInstr>) -> u64 {
    let Some(li) = lpe else { return 0 };
    let operand = 2 + fmt.payload_bits;
    let b = li.b.unwrap_or(OperandSrc::Const(false));
    1 | opcode(li.op) << 1 | operand_field(fmt, li.a) << 5 | operand_field(fmt, b) << (5 + operand)
}

/// The operand an operand field names. Input addresses are placeholders
/// until [`decode_program`]'s counter walk.
fn operand_src(field: u64) -> OperandSrc {
    let payload = field >> 2;
    match field & 3 {
        TAG_ROUTE => OperandSrc::Route(payload as u16),
        TAG_SNAPSHOT => OperandSrc::Snapshot(payload as u16),
        TAG_INPUT => OperandSrc::Input(u32::MAX),
        _ => OperandSrc::Const(payload & 1 == 1),
    }
}

/// Encodes one occupied queue slot: `m` lane fields, `2m` port fields,
/// then the snapshot mask, 64 ports per field, from `latch` (a scratch
/// bitset of `2m` bits, left zeroed).
fn encode_slot(fmt: &InstrFormat, instr: &VliwInstr, latch: &mut [u64]) -> Vec<u64> {
    let ports = 2 * fmt.m;
    let mut w = BitWriter::with_bits(fmt.word_bits());
    for lpe in &instr.lpes {
        w.push(lane_field(fmt, lpe.as_ref()), fmt.lpe_bits());
    }
    for src in &instr.route_in[..ports] {
        w.push(
            src.map_or(0, |s| 1 | u64::from(s) << 1),
            1 + fmt.source_bits,
        );
    }
    for &port in &instr.snapshot_writes {
        let port = usize::from(port);
        if port < ports {
            latch[port / 64] |= 1 << (port % 64);
        }
    }
    for (i, word) in latch.iter_mut().enumerate() {
        w.push(std::mem::take(word), (ports - 64 * i).min(64));
    }
    debug_assert_eq!(w.pos, fmt.word_bits());
    w.words
}

/// Encodes a program into its self-contained bit-packed image.
///
/// # Errors
///
/// Returns [`CoreError::BadConfig`] if a field overflows its width
/// (cannot happen for programs generated by this workspace's codegen).
pub fn encode_program(program: &LpuProgram) -> Result<EncodedProgram, CoreError> {
    if program.m > MAX_M {
        return Err(CoreError::BadConfig {
            reason: format!("m = {} does not fit the instruction format", program.m),
        });
    }
    let fmt = InstrFormat::new(program.m);
    let mut latch = vec![0u64; (2 * program.m).div_ceil(64)];
    let words = program.queues[..program.n]
        .iter()
        .map(|queue| {
            queue[..program.queue_depth]
                .iter()
                .map(|slot| {
                    slot.as_ref()
                        .map(|instr| encode_slot(&fmt, instr, &mut latch))
                })
                .collect()
        })
        .collect();
    Ok(EncodedProgram {
        format: fmt,
        n: program.n,
        queue_depth: program.queue_depth,
        total_cycles: program.total_cycles,
        num_inputs: program.num_inputs,
        input_buffer: program.input_buffer.clone(),
        outputs: program.outputs.clone(),
        words,
    })
}

/// Decodes one occupied queue slot, whose length [`decode_program`] has
/// checked.
fn decode_slot(fmt: &InstrFormat, bits: &[u64]) -> Result<VliwInstr, CoreError> {
    let m = fmt.m;
    let operand = 2 + fmt.payload_bits;
    let mut r = BitReader::new(bits);
    let mut instr = VliwInstr::empty(m);
    for lane in instr.lpes.iter_mut() {
        let field = r.pull(fmt.lpe_bits());
        if field & 1 == 0 {
            continue;
        }
        let code = field >> 1 & 0xF;
        let op = op_from_code(code).ok_or_else(|| {
            CoreError::Artifact(ArtifactError::Malformed {
                reason: format!("bad opcode {code} in instruction image"),
            })
        })?;
        let b = operand_src(field >> (5 + operand) & mask(operand));
        *lane = Some(LpeInstr {
            op,
            a: operand_src(field >> 5 & mask(operand)),
            b: (op.arity() == 2).then_some(b),
            node: NodeId::new(0), // diagnostic only
        });
    }
    for route in instr.route_in.iter_mut() {
        let field = r.pull(1 + fmt.source_bits);
        if field & 1 == 1 {
            *route = Some((field >> 1) as u16);
        }
    }
    for base in (0..2 * m).step_by(64) {
        let mut latch = r.pull((2 * m - base).min(64));
        while latch != 0 {
            instr
                .snapshot_writes
                .push((base + latch.trailing_zeros() as usize) as u16);
            latch &= latch - 1;
        }
    }
    Ok(instr)
}

/// Decodes a self-contained program image back to an executable
/// [`LpuProgram`].
///
/// Node annotations (diagnostic `node`/`mfg` fields) are not stored in the
/// bitstream and come back as placeholders; input-buffer addresses are
/// reconstructed with the §V-B read counter. All other metadata
/// (input-buffer layout, output taps, cycle counts) travels inside the
/// [`EncodedProgram`] itself.
///
/// # Errors
///
/// Returns [`CoreError::Artifact`] for truncated or structurally
/// inconsistent images and malformed opcodes — corrupt images are typed
/// errors, never panics. The declared shape is checked before anything
/// is allocated or walked: `m` must fit the format, every occupied slot
/// must hold a whole word, and a pass may last at most `n + queue_depth`
/// cycles (what codegen emits at most).
pub fn decode_program(encoded: &EncodedProgram) -> Result<LpuProgram, CoreError> {
    let malformed = |reason: String| CoreError::Artifact(ArtifactError::Malformed { reason });
    let fmt = image_format(encoded.format.m)?;
    if encoded.format != fmt {
        return Err(malformed(format!(
            "image format {:?} is not the format of m = {}",
            encoded.format, fmt.m
        )));
    }
    let m = fmt.m;
    if encoded.words.len() != encoded.n {
        return Err(malformed(format!(
            "image stores {} LPV queues but declares n = {}",
            encoded.words.len(),
            encoded.n
        )));
    }
    let max_cycles = encoded.n.saturating_add(encoded.queue_depth);
    if encoded.total_cycles > max_cycles {
        return Err(malformed(format!(
            "image declares {} cycles, more than n + queue depth = {max_cycles}",
            encoded.total_cycles
        )));
    }
    let slot_words = fmt.word_bits().div_ceil(64);
    let mut queues: Vec<Vec<Option<VliwInstr>>> = Vec::with_capacity(encoded.n);
    for (lpv, lpv_words) in encoded.words.iter().enumerate() {
        if lpv_words.len() != encoded.queue_depth {
            return Err(malformed(format!(
                "LPV {lpv} stores {} queue slots but the image declares depth {}",
                lpv_words.len(),
                encoded.queue_depth
            )));
        }
        let mut queue = Vec::with_capacity(encoded.queue_depth);
        for slot in lpv_words {
            queue.push(match slot {
                None => None,
                Some(bits) if bits.len() < slot_words => {
                    return Err(CoreError::Artifact(ArtifactError::Truncated {
                        expected: slot_words * 8,
                        got: bits.len() * 8,
                    }));
                }
                Some(bits) => Some(decode_slot(&fmt, bits)?),
            });
        }
        queues.push(queue);
    }

    let mut program = LpuProgram {
        m,
        n: encoded.n,
        queue_depth: encoded.queue_depth,
        total_cycles: encoded.total_cycles,
        queues,
        input_buffer: encoded.input_buffer.clone(),
        outputs: encoded.outputs.clone(),
        num_inputs: encoded.num_inputs,
    };

    // Reconstruct sequential input-buffer addresses (§V-B counter): at
    // compute cycle `c`, LPV `lpv` executes address `c − lpv`, so the walk
    // visits only the LPVs with an address inside the queue.
    let mut counter = 0u32;
    for cycle in 0..program.total_cycles {
        let first = (cycle + 1).saturating_sub(program.queue_depth);
        for lpv in first..program.n.min(cycle + 1) {
            if let Some(instr) = program.queues[lpv][cycle - lpv].as_mut() {
                for li in instr.lpes.iter_mut().flatten() {
                    for slot in [Some(&mut li.a), li.b.as_mut()].into_iter().flatten() {
                        if matches!(slot, OperandSrc::Input(_)) {
                            *slot = OperandSrc::Input(counter);
                            counter = counter.saturating_add(1);
                        }
                    }
                }
            }
        }
    }
    if counter as usize != program.input_buffer.len() {
        return Err(malformed(format!(
            "instructions read {} input-buffer slots but the layout holds {}",
            counter,
            program.input_buffer.len()
        )));
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Flow;
    use crate::lpu::{LpuConfig, LpuMachine};
    use lbnn_netlist::random::RandomDag;
    use lbnn_netlist::Lanes;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The image as the layout above reads, built one bit at a time: the
    /// oracle the packed encoder must match bit for bit.
    fn reference_slot(fmt: &InstrFormat, instr: &VliwInstr) -> Vec<u64> {
        let mut bits: Vec<bool> = Vec::new();
        let mut put = |value: u64, width: usize| {
            bits.extend((0..width).map(|i| value >> i & 1 == 1));
        };
        let operand = |put: &mut dyn FnMut(u64, usize), src: OperandSrc| {
            let (tag, payload) = match src {
                OperandSrc::Route(p) => (TAG_ROUTE, u64::from(p)),
                OperandSrc::Snapshot(p) => (TAG_SNAPSHOT, u64::from(p)),
                OperandSrc::Input(_) => (TAG_INPUT, 0),
                OperandSrc::Const(v) => (TAG_CONST, u64::from(v)),
            };
            put(tag, 2);
            put(payload, fmt.payload_bits);
        };
        for lpe in &instr.lpes {
            match lpe {
                None => put(0, fmt.lpe_bits()),
                Some(li) => {
                    put(1, 1);
                    put(opcode(li.op), 4);
                    operand(&mut put, li.a);
                    operand(&mut put, li.b.unwrap_or(OperandSrc::Const(false)));
                }
            }
        }
        for port in 0..2 * fmt.m {
            match instr.route_in[port] {
                Some(src) => put(1 | u64::from(src) << 1, 1 + fmt.source_bits),
                None => put(0, 1 + fmt.source_bits),
            }
        }
        for port in 0..2 * fmt.m {
            put(u64::from(instr.snapshot_writes.contains(&(port as u16))), 1);
        }
        let mut words = vec![0u64; bits.len().div_ceil(64)];
        for (i, _) in bits.iter().enumerate().filter(|(_, &b)| b) {
            words[i / 64] |= 1 << (i % 64);
        }
        words
    }

    /// Compiles a random DAG for an `m`-LPE machine.
    fn program_for(m: usize, seed: u64) -> LpuProgram {
        let nl = RandomDag::loose(3 * m + 4, 6, 2 * m + 4)
            .outputs(5)
            .generate(seed);
        let config = LpuConfig::new(m, 4);
        let flow = Flow::builder(&nl).config(config).compile().unwrap();
        (*flow.program).clone()
    }

    #[test]
    fn packed_fields_are_the_bits_of_the_layout_at_every_width() {
        for m in [2usize, 3, 4, 8, 16, 64] {
            let program = program_for(m, m as u64);
            let fmt = InstrFormat::new(m);
            let encoded = encode_program(&program).unwrap();
            let mut slots = 0;
            for (queue, words) in program.queues.iter().zip(&encoded.words) {
                for (instr, word) in queue.iter().zip(words) {
                    assert_eq!(instr.is_some(), word.is_some());
                    if let (Some(instr), Some(word)) = (instr, word) {
                        assert_eq!(word, &reference_slot(&fmt, instr), "m = {m}");
                        slots += 1;
                    }
                }
            }
            assert!(slots > 0);
            // encode -> decode -> encode is the identity on the image.
            let again = encode_program(&decode_program(&encoded).unwrap()).unwrap();
            assert_eq!(again, encoded, "m = {m}");
        }
    }

    #[test]
    fn the_format_packs_up_to_its_largest_m() {
        let fits = InstrFormat::new(MAX_M);
        assert!(fits.lpe_bits() <= 64 && fits.source_bits < 64);
        assert!(InstrFormat::new(MAX_M + 1).lpe_bits() > 64);
        for m in [0, MAX_M + 1, usize::MAX] {
            assert!(matches!(
                image_format(m),
                Err(CoreError::Artifact(ArtifactError::Malformed { .. }))
            ));
        }
    }

    /// Decoding `image` must fail with a typed artifact error, quickly.
    fn rejects_fast(image: &EncodedProgram) -> ArtifactError {
        let start = std::time::Instant::now();
        let err = match decode_program(image) {
            Err(CoreError::Artifact(err)) => err,
            other => panic!("expected a typed artifact error, got {other:?}"),
        };
        // A walk over the declared cycles or an allocation per declared
        // LPE would take seconds or abort; a check takes microseconds.
        assert!(start.elapsed().as_secs_f64() < 0.5, "{:?}", start.elapsed());
        err
    }

    #[test]
    fn a_declared_cycle_count_past_the_queues_is_malformed() {
        let mut image = encode_program(&program_for(4, 1)).unwrap();
        let bound = image.n + image.queue_depth;
        assert!(image.total_cycles <= bound);
        for cycles in [bound + 1, 1 << 28, usize::MAX] {
            image.total_cycles = cycles;
            assert!(matches!(
                rejects_fast(&image),
                ArtifactError::Malformed { .. }
            ));
        }
    }

    #[test]
    fn a_declared_m_past_the_format_is_rejected_before_allocating() {
        let mut image = encode_program(&program_for(4, 2)).unwrap();
        image.format = InstrFormat::new(1 << 40);
        assert!(matches!(
            rejects_fast(&image),
            ArtifactError::Malformed { .. }
        ));
        // A format that disagrees with its own `m` is malformed too.
        let mut image = encode_program(&program_for(4, 2)).unwrap();
        image.format.payload_bits = 60;
        assert!(matches!(
            rejects_fast(&image),
            ArtifactError::Malformed { .. }
        ));
    }

    #[test]
    fn a_slot_cut_mid_lane_is_truncated() {
        let mut image = encode_program(&program_for(64, 3)).unwrap();
        let fmt = image.format;
        // 10 of the slot's 39 words end inside lane 27.
        assert_eq!(fmt.word_bits().div_ceil(64), 39);
        assert_ne!(640 % fmt.lpe_bits(), 0);
        let slot = image.words.iter_mut().flatten().flatten().next().unwrap();
        slot.truncate(10);
        assert!(matches!(
            rejects_fast(&image),
            ArtifactError::Truncated {
                expected: 312,
                got: 80
            }
        ));
    }

    #[test]
    fn word_width_formula() {
        let fmt = InstrFormat::new(64);
        assert_eq!(fmt.payload_bits, 7); // log2(128)
        assert_eq!(fmt.source_bits, 6); // log2(64)
        assert_eq!(fmt.lpe_bits(), 1 + 4 + 2 * 9);
        assert_eq!(fmt.word_bits(), 64 * 23 + 128 * 7 + 128);
    }

    #[test]
    fn round_trip_preserves_execution() {
        for seed in 0..4 {
            let nl = RandomDag::strict(12, 6, 10).outputs(4).generate(seed);
            let config = LpuConfig::new(6, 4);
            let flow = Flow::builder(&nl).config(config).compile().unwrap();

            let encoded = encode_program(&flow.program).unwrap();
            // Self-contained: decoding uses nothing but the image.
            let decoded = decode_program(&encoded).unwrap();

            // Same structure modulo diagnostic fields.
            assert_eq!(decoded.queue_depth, flow.program.queue_depth);
            assert_eq!(decoded.total_cycles, flow.program.total_cycles);
            assert_eq!(decoded.num_inputs, flow.program.num_inputs);
            assert_eq!(decoded.input_buffer, flow.program.input_buffer);
            assert_eq!(decoded.outputs, flow.program.outputs);
            assert_eq!(
                decoded.instruction_count(),
                flow.program.instruction_count()
            );
            assert_eq!(decoded.lpe_op_count(), flow.program.lpe_op_count());

            // And bit-identical behaviour on the machine.
            let machine = LpuMachine::new(config).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let inputs: Vec<Lanes> = (0..nl.inputs().len())
                .map(|_| {
                    let bits: Vec<bool> = (0..64).map(|_| rng.random_bool(0.5)).collect();
                    Lanes::from_bools(&bits)
                })
                .collect();
            let a = machine.run(&flow.program, &inputs).unwrap();
            let b = machine.run(&decoded, &inputs).unwrap();
            assert_eq!(
                a.outputs, b.outputs,
                "decoded program must behave identically"
            );
        }
    }

    #[test]
    fn image_size_matches_resource_model_scale() {
        // The per-word bit count used by the BRAM model tracks the real
        // encoding within 25% at the paper's operating point.
        let fmt = InstrFormat::new(64);
        let modeled = {
            // Mirror of lpu::resource's instr_bits expression.
            let m = 64u64;
            let w = 128u64;
            m * (4 + 2 * (2 + 7)) + w * 6 + w
        };
        let real = fmt.word_bits() as u64;
        let ratio = real as f64 / modeled as f64;
        assert!((0.75..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn empty_slots_stay_empty() {
        let nl = RandomDag::strict(8, 4, 6).outputs(2).generate(1);
        let config = LpuConfig::new(4, 4);
        let flow = Flow::builder(&nl).config(config).compile().unwrap();
        let encoded = encode_program(&flow.program).unwrap();
        let decoded = decode_program(&encoded).unwrap();
        for lpv in 0..4 {
            for addr in 0..flow.program.queue_depth {
                assert_eq!(
                    flow.program.queues[lpv][addr].is_some(),
                    decoded.queues[lpv][addr].is_some()
                );
            }
        }
    }

    #[test]
    fn truncated_words_are_typed_errors_not_panics() {
        let nl = RandomDag::strict(10, 5, 8).outputs(3).generate(2);
        let flow = Flow::builder(&nl)
            .config(LpuConfig::new(5, 4))
            .compile()
            .unwrap();
        let encoded = encode_program(&flow.program).unwrap();

        // Chop words out of every stored instruction, one image at a time.
        let mut found_truncation = false;
        for lpv in 0..encoded.words.len() {
            for addr in 0..encoded.words[lpv].len() {
                if encoded.words[lpv][addr].is_none() {
                    continue;
                }
                let mut bad = encoded.clone();
                let w = bad.words[lpv][addr].as_mut().unwrap();
                w.truncate(w.len().saturating_sub(1));
                match decode_program(&bad) {
                    Err(CoreError::Artifact(ArtifactError::Truncated { .. })) => {
                        found_truncation = true;
                    }
                    Err(CoreError::Artifact(_)) => {}
                    other => panic!("expected a typed artifact error, got {other:?}"),
                }
            }
        }
        assert!(found_truncation, "at least one truncation must surface");
    }

    #[test]
    fn inconsistent_shape_is_malformed() {
        let nl = RandomDag::strict(8, 4, 6).outputs(2).generate(3);
        let flow = Flow::builder(&nl)
            .config(LpuConfig::new(4, 4))
            .compile()
            .unwrap();
        let encoded = encode_program(&flow.program).unwrap();

        let mut missing_lpv = encoded.clone();
        missing_lpv.words.pop();
        assert!(matches!(
            decode_program(&missing_lpv),
            Err(CoreError::Artifact(ArtifactError::Malformed { .. }))
        ));

        let mut short_queue = encoded.clone();
        short_queue.words[0].pop();
        assert!(matches!(
            decode_program(&short_queue),
            Err(CoreError::Artifact(ArtifactError::Malformed { .. }))
        ));

        let mut wrong_inputs = encoded;
        wrong_inputs.input_buffer.pop();
        assert!(matches!(
            decode_program(&wrong_inputs),
            Err(CoreError::Artifact(ArtifactError::Malformed { .. }))
        ));
    }
}

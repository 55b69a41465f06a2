//! Error type for the compiler and LPU simulator.

use std::error::Error;
use std::fmt;

use lbnn_netlist::NetlistError;

/// Failure modes of the serialized-artifact layer ([`crate::artifact`])
/// and of decoding binary program images
/// ([`crate::compiler::isa::decode_program`]).
///
/// Every variant is a typed, recoverable error: corrupt or truncated
/// bytes never panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The file could not be read or written.
    Io {
        /// Stringified `std::io::Error`.
        reason: String,
    },
    /// The image does not start with the artifact magic.
    BadMagic,
    /// The artifact was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the image.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The image ends before its declared payload does.
    Truncated {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The checksum over the payload does not match the stored value.
    ChecksumMismatch {
        /// Checksum recorded in the image.
        stored: u64,
        /// Checksum computed from the bytes.
        computed: u64,
    },
    /// The payload is structurally invalid (bad opcode, broken counts,
    /// inconsistent interface…).
    Malformed {
        /// Human-readable description.
        reason: String,
    },
    /// The artifact records a bit-sliced backend whose slice width this
    /// build does not support (supported: 1, 2, 4, 8 or 16 words per
    /// net = 64/128/256/512/1024 lanes).
    UnsupportedWidth {
        /// The `words` byte found in the backend record.
        words: u8,
    },
    /// A patch delta (`.lbnnp`) was made against a different base
    /// artifact than the one it is being applied to.
    BaseMismatch {
        /// Base-artifact checksum the delta was bound to.
        expected: u64,
        /// Checksum of the artifact actually being patched.
        found: u64,
    },
    /// A patch delta names a cell its base artifact does not have (or
    /// one that is not patchable, e.g. a primary input).
    UnknownCell {
        /// Layer index recorded in the delta (0 for flow artifacts).
        layer: u32,
        /// Node id recorded in the delta.
        node: u32,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io { reason } => write!(f, "artifact I/O failed: {reason}"),
            ArtifactError::BadMagic => write!(f, "not an lbnn artifact (bad magic)"),
            ArtifactError::UnsupportedVersion { found, supported } => write!(
                f,
                "artifact format version {found} is not supported (this build reads v{supported})"
            ),
            ArtifactError::Truncated { expected, got } => {
                write!(
                    f,
                    "artifact truncated: expected {expected} bytes, got {got}"
                )
            }
            ArtifactError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            ArtifactError::Malformed { reason } => write!(f, "malformed artifact: {reason}"),
            ArtifactError::UnsupportedWidth { words } => write!(
                f,
                "artifact records a bit-sliced backend of {words} words per net; \
                 this build supports 1, 2, 4, 8 or 16 (64/128/256/512/1024 lanes)"
            ),
            ArtifactError::BaseMismatch { expected, found } => write!(
                f,
                "patch delta was made against base artifact {expected:#018x}, \
                 but this artifact is {found:#018x}"
            ),
            ArtifactError::UnknownCell { layer, node } => write!(
                f,
                "patch delta names cell {node} of layer {layer}, which the base \
                 artifact does not have (or which is not patchable)"
            ),
        }
    }
}

impl Error for ArtifactError {}

/// Errors produced by the compiler pipeline or the LPU machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The input netlist is structurally invalid.
    Netlist(NetlistError),
    /// The netlist is not fully path balanced (the compiler requires FPB).
    NotBalanced,
    /// A single logic level in one MFG exceeds the LPE count `m` — the
    /// partitioner cannot produce such an MFG, so this flags corruption.
    LevelTooWide {
        /// Offending level.
        level: u32,
        /// Number of gates at that level.
        width: usize,
        /// LPEs per LPV.
        m: usize,
    },
    /// Two scheduled level-executions claimed the same (LPV, cycle) slot.
    ResourceConflict {
        /// LPV index.
        lpv: usize,
        /// Compute cycle.
        cycle: usize,
    },
    /// A snapshot register was overwritten while still holding live data.
    SnapshotClobber {
        /// LPV index.
        lpv: usize,
        /// LPE operand port (0..2m).
        port: usize,
        /// Compute cycle of the clobbering write.
        cycle: usize,
    },
    /// The machine was given the wrong number of input lane vectors.
    InputArity {
        /// Primary inputs expected.
        expected: usize,
        /// Lane vectors supplied.
        got: usize,
    },
    /// The LPU configuration is unusable (e.g. zero LPEs or LPVs).
    BadConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// End-to-end verification found a primary output whose LPU lanes
    /// disagree with the netlist oracle.
    VerifyMismatch {
        /// Name of the mismatching primary output.
        output: String,
        /// First batch lane where the LPU and the oracle disagree.
        lane: usize,
    },
    /// The serving runtime's admission limit was reached and the
    /// request was shed instead of queued
    /// ([`Runtime::try_submit`](crate::Runtime::try_submit)) — the typed
    /// form of an HTTP 429.
    Overloaded {
        /// Requests in flight when admission was refused.
        in_flight: usize,
        /// The runtime's admission limit.
        limit: usize,
    },
    /// A serialized artifact or program image could not be loaded.
    Artifact(ArtifactError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Netlist(e) => write!(f, "netlist error: {e}"),
            CoreError::NotBalanced => {
                write!(f, "netlist is not fully path balanced; run balance() first")
            }
            CoreError::LevelTooWide { level, width, m } => {
                write!(f, "MFG level {level} has {width} gates, exceeding m = {m}")
            }
            CoreError::ResourceConflict { lpv, cycle } => {
                write!(f, "two executions claim LPV {lpv} at compute cycle {cycle}")
            }
            CoreError::SnapshotClobber { lpv, port, cycle } => write!(
                f,
                "snapshot register at LPV {lpv} port {port} clobbered at cycle {cycle}"
            ),
            CoreError::InputArity { expected, got } => {
                write!(f, "expected {expected} input lane vectors, got {got}")
            }
            CoreError::BadConfig { reason } => write!(f, "bad LPU configuration: {reason}"),
            CoreError::VerifyMismatch { output, lane } => write!(
                f,
                "LPU output `{output}` disagrees with the netlist oracle (first at lane {lane})"
            ),
            CoreError::Overloaded { in_flight, limit } => write!(
                f,
                "runtime overloaded: {in_flight} requests in flight (admission limit {limit}); \
                 request shed"
            ),
            CoreError::Artifact(e) => write!(f, "artifact error: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Netlist(e) => Some(e),
            CoreError::Artifact(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArtifactError> for CoreError {
    fn from(e: ArtifactError) -> Self {
        CoreError::Artifact(e)
    }
}

impl From<NetlistError> for CoreError {
    fn from(e: NetlistError) -> Self {
        CoreError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::Netlist(NetlistError::NoOutputs);
        assert!(e.to_string().contains("netlist"));
        assert!(e.source().is_some());
        let e = CoreError::ResourceConflict { lpv: 3, cycle: 9 };
        assert!(e.to_string().contains("LPV 3"));
        assert!(e.source().is_none());
        let e = CoreError::VerifyMismatch {
            output: "y0".to_string(),
            lane: 17,
        };
        assert!(e.to_string().contains("y0"));
        assert!(e.to_string().contains("lane 17"));
        assert!(e.source().is_none());
    }

    #[test]
    fn artifact_errors_display_and_chain() {
        let cases = [
            ArtifactError::Io {
                reason: "denied".into(),
            },
            ArtifactError::BadMagic,
            ArtifactError::UnsupportedVersion {
                found: 9,
                supported: 1,
            },
            ArtifactError::Truncated {
                expected: 100,
                got: 4,
            },
            ArtifactError::ChecksumMismatch {
                stored: 1,
                computed: 2,
            },
            ArtifactError::Malformed {
                reason: "bad opcode".into(),
            },
            ArtifactError::UnsupportedWidth { words: 5 },
            ArtifactError::BaseMismatch {
                expected: 3,
                found: 4,
            },
            ArtifactError::UnknownCell { layer: 1, node: 42 },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
            let wrapped: CoreError = e.clone().into();
            assert!(wrapped.to_string().contains("artifact"));
            assert!(wrapped.source().is_some());
            assert_eq!(wrapped, CoreError::Artifact(e));
        }
    }
}

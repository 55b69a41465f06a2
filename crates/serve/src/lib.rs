//! # lbnn-serve — the network front of "compile once, serve anywhere"
//!
//! Everything below this crate is in-process: a consumer links `lbnn`,
//! loads an artifact, and calls [`Runtime::submit`](lbnn_core::Runtime).
//! The paper's deployment pitch — compile LogicNets-style netlists once
//! and serve them at extreme rates — only reaches "millions of users"
//! with a wire in front of the engine. This crate is that wire, built on
//! `std::net` alone (no external dependencies):
//!
//! ```text
//!             TCP accept loop (bounded, non-blocking, drainable)
//!                  │ per-connection thread, protocol sniffed
//!        ┌─────────┴──────────┐
//!   HTTP/1.1 ([`http`])   binary frames ([`wire`], the fast path)
//!        └─────────┬──────────┘
//!         [`ModelRegistry`]: "name@version" → [`ModelEntry`]
//!                  │   (artifact discovered on disk, one Runtime each)
//!        admission control: Runtime::try_submit
//!            ├── saturated → 429 / `SHED` immediately   (never blocks
//!            └── admitted  → micro-batched bit-sliced    the accept
//!                            execution, per-request reply  loop)
//! ```
//!
//! * [`ModelRegistry`] scans a directory of `*.lbnn` artifacts
//!   (`name@version.lbnn`), loads each as a
//!   [`CompiledModel`](lbnn_core::CompiledModel) — a saved flow is the
//!   one-layer model it is — and gives each its own
//!   [`Runtime`](lbnn_core::Runtime).
//! * [`Server`] serves both protocols on one port, tracks per-model and
//!   per-endpoint [`metrics`] (`GET /metrics`, `GET /models`), sheds
//!   load per model when a runtime saturates, and drains gracefully:
//!   stop accepting, resolve every accepted request, report final
//!   stats.
//! * [`loadgen`] is the companion open-loop load generator
//!   (`lbnn-serve --bench`): Poisson arrivals at a target rate over
//!   persistent binary-protocol connections, latency percentiles
//!   measured over the wire, optional bit-exact verification against
//!   the netlist oracle.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::error::Error;
use std::fmt;

use lbnn_core::CoreError;

pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod registry;
pub mod server;
pub mod wire;

pub use http::{Request, WireLimits};
pub use loadgen::{LoadGenOptions, LoadGenReport};
pub use metrics::{ModelMetrics, ServerMetrics};
pub use registry::{InferOutcome, ModelEntry, ModelRegistry};
pub use server::{ServeReport, Server, ServerHandle, ServerOptions};

/// Failure modes of the serving front-end (registry construction,
/// binding, the load generator). Per-request problems are not errors —
/// they are responses (4xx/5xx, or a binary status code) — so this type
/// only covers failures that prevent serving at all.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// An engine/runtime construction error bubbled up from `lbnn-core`.
    Core(CoreError),
    /// A filesystem or socket operation failed.
    Io {
        /// What was being touched (path or address).
        target: String,
        /// Stringified OS error.
        reason: String,
    },
    /// An artifact file in the model directory could not be loaded.
    Artifact {
        /// Path of the offending file.
        path: String,
        /// The typed artifact error.
        source: CoreError,
    },
    /// An artifact filename does not parse as `name[@version].lbnn`.
    BadModelName {
        /// The offending file stem.
        stem: String,
        /// Why it was rejected.
        reason: String,
    },
    /// Two artifacts resolved to the same `name@version`.
    DuplicateModel {
        /// Model name.
        name: String,
        /// Model version.
        version: String,
    },
    /// The model directory exists but holds no loadable artifact.
    EmptyRegistry {
        /// The scanned directory.
        dir: String,
    },
    /// A patch (or other admin operation) named a model the registry
    /// does not serve.
    ModelNotFound {
        /// The `name[@version]` spec that resolved nothing.
        spec: String,
    },
    /// The load generator got a response that violates the protocol.
    Protocol {
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "serving runtime error: {e}"),
            ServeError::Io { target, reason } => write!(f, "{target}: {reason}"),
            ServeError::Artifact { path, source } => {
                write!(f, "cannot load artifact {path}: {source}")
            }
            ServeError::BadModelName { stem, reason } => {
                write!(f, "bad model filename `{stem}.lbnn`: {reason}")
            }
            ServeError::DuplicateModel { name, version } => {
                write!(f, "duplicate model `{name}@{version}` in the registry")
            }
            ServeError::EmptyRegistry { dir } => {
                write!(f, "no loadable `.lbnn` artifacts found in {dir}")
            }
            ServeError::ModelNotFound { spec } => {
                write!(f, "no model `{spec}` in the registry")
            }
            ServeError::Protocol { reason } => write!(f, "protocol violation: {reason}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Core(e) => Some(e),
            ServeError::Artifact { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

/// A `Write` that counts `write` calls: the codecs' tests use it to pin
/// "one response, one write" (see [`wire::write_frame`]).
#[cfg(test)]
#[derive(Default)]
pub(crate) struct CountingWriter {
    pub(crate) writes: usize,
    pub(crate) bytes: Vec<u8>,
}

#[cfg(test)]
impl std::io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_chain() {
        let e = ServeError::EmptyRegistry { dir: "/m".into() };
        assert!(e.to_string().contains("/m"));
        assert!(e.source().is_none());
        let e = ServeError::Artifact {
            path: "a.lbnn".into(),
            source: CoreError::Artifact(lbnn_core::ArtifactError::BadMagic),
        };
        assert!(e.to_string().contains("a.lbnn"));
        assert!(e.source().is_some());
        let e: ServeError = CoreError::Overloaded {
            in_flight: 9,
            limit: 8,
        }
        .into();
        assert!(e.to_string().contains("overloaded"));
    }
}

//! The multi-model registry: `name@version` → loaded artifact.
//!
//! A model directory is the unit of deployment: every `*.lbnn` file in
//! it (non-recursive) becomes one served model. The file stem carries
//! the identity — `xor@3.lbnn` serves as `xor@3`; a stem without `@`
//! gets version `1`. Every artifact loads as a [`CompiledModel`]: a
//! saved flow is the one-layer model it is, so one decoder and one
//! patch path serve both. Each entry owns a dedicated [`Runtime`] —
//! models are isolated, so one model's saturation sheds *its* traffic
//! while its neighbours keep serving.
//!
//! Resolution accepts `name@version` (exact) or bare `name` (the latest
//! version: numeric descending when both versions are integers,
//! lexicographic otherwise — so `v10` beats `v9` where both are plain
//! numbers).

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Mutex;

use lbnn_core::{CompiledModel, CoreError, Runtime, RuntimeOptions, RuntimeStats};

use crate::metrics::ModelMetrics;
use crate::ServeError;

/// One served model: identity, its dedicated runtime, and counters.
pub struct ModelEntry {
    /// Model name (file stem before `@`).
    pub name: String,
    /// Model version (file stem after `@`, `"1"` if absent).
    pub version: String,
    /// Primary input count the model expects per request.
    pub num_inputs: usize,
    /// Primary output count the model produces per request.
    pub num_outputs: usize,
    /// Backend label (`scalar`, `bitsliced:256`, ...).
    pub backend: String,
    /// The model's dedicated serving runtime.
    pub runtime: Runtime,
    /// Request counters for this model.
    pub metrics: ModelMetrics,
    /// The served artifact, kept so `.lbnnp` deltas can be applied
    /// against it at any time ([`ModelEntry::apply_patch`]). After a
    /// successful patch it *is* the patched artifact: deltas chain, each
    /// binding to the checksum of whatever the entry currently serves.
    /// The mutex serializes patch application; serving never touches it.
    source: Mutex<CompiledModel>,
}

impl std::fmt::Debug for ModelEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelEntry")
            .field("id", &self.id())
            .field("num_inputs", &self.num_inputs)
            .field("num_outputs", &self.num_outputs)
            .field("backend", &self.backend)
            .finish_non_exhaustive()
    }
}

impl ModelEntry {
    /// Canonical `name@version` identifier.
    pub fn id(&self) -> String {
        format!("{}@{}", self.name, self.version)
    }

    /// Current runtime statistics (cheap snapshot).
    pub fn stats(&self) -> RuntimeStats {
        self.runtime.stats()
    }

    /// Run one request through admission control and the runtime,
    /// recording the outcome in [`ModelEntry::metrics`].
    ///
    /// Blocks the *calling connection thread* until the response is
    /// ready (or the request is shed immediately) — never the accept
    /// loop.
    pub fn infer(&self, bits: &[bool]) -> InferOutcome {
        match self.runtime.try_submit(bits) {
            Ok(handle) => match handle.wait() {
                Ok(outputs) => {
                    self.metrics.ok.fetch_add(1, Ordering::Relaxed);
                    InferOutcome::Ok(outputs)
                }
                Err(e) => {
                    self.metrics.failed.fetch_add(1, Ordering::Relaxed);
                    InferOutcome::Failed(e.to_string())
                }
            },
            Err(CoreError::Overloaded { .. }) => {
                self.metrics.shed.fetch_add(1, Ordering::Relaxed);
                InferOutcome::Shed
            }
            Err(e) => {
                self.metrics.bad_request.fetch_add(1, Ordering::Relaxed);
                InferOutcome::BadArity(e.to_string())
            }
        }
    }

    /// Applies a `.lbnnp` patch delta to this entry's served artifact
    /// and hot-swaps the runtime onto the patched compile — traffic in
    /// flight finishes on the old version, new requests see the new one.
    ///
    /// Returns the runtime's new serving version. On success the stored
    /// artifact becomes the patched one, so a following delta must bind
    /// to the *patched* artifact's checksum (deltas chain).
    ///
    /// # Errors
    ///
    /// Typed artifact errors for a corrupt/truncated delta, a delta
    /// bound to a different base
    /// ([`BaseMismatch`](lbnn_core::ArtifactError::BaseMismatch)), or
    /// one naming unknown cells
    /// ([`UnknownCell`](lbnn_core::ArtifactError::UnknownCell)); the
    /// entry keeps serving its current version unchanged on any error.
    pub fn apply_patch(&self, delta: &[u8]) -> Result<u64, ServeError> {
        let mut source = self.source.lock().expect("model source lock");
        let patched = source.apply_delta(delta)?;
        let version = self.runtime.swap_model(patched.clone())?;
        *source = patched;
        Ok(version)
    }
}

/// What happened to one request handed to [`ModelEntry::infer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferOutcome {
    /// Admitted and answered: the output bits.
    Ok(Vec<bool>),
    /// Refused by admission control — the runtime is saturated.
    Shed,
    /// Rejected before submission (wrong input arity).
    BadArity(String),
    /// Admitted but the engine failed.
    Failed(String),
}

/// Immutable collection of [`ModelEntry`]s, shared across connections.
pub struct ModelRegistry {
    entries: Vec<ModelEntry>,
    /// `name@version` → index into `entries`.
    by_id: HashMap<String, usize>,
    /// `name` → index of its latest version.
    latest: HashMap<String, usize>,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("entries", &self.entries)
            .finish_non_exhaustive()
    }
}

impl ModelRegistry {
    /// Build an empty registry (populate with
    /// [`ModelRegistry::insert_model`]).
    pub fn new() -> ModelRegistry {
        ModelRegistry {
            entries: Vec::new(),
            by_id: HashMap::new(),
            latest: HashMap::new(),
        }
    }

    /// Scan `dir` for `*.lbnn` artifacts and load every one, giving each
    /// its own runtime built from `options`.
    pub fn load_dir(
        dir: impl AsRef<Path>,
        options: &RuntimeOptions,
    ) -> Result<ModelRegistry, ServeError> {
        let dir = dir.as_ref();
        let io_err = |target: &Path, e: std::io::Error| ServeError::Io {
            target: target.display().to_string(),
            reason: e.to_string(),
        };
        // One listing, split by extension; sorted, so registry order
        // (and which patch lands first) does not depend on readdir order.
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| io_err(dir, e))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .collect();
        files.sort();
        let with_extension = |wanted: &'static str| {
            let files = files.iter();
            files.filter(move |p| p.extension().is_some_and(|x| x == wanted))
        };
        let read = |path: &Path| std::fs::read(path).map_err(|e| io_err(path, e));
        let mut registry = ModelRegistry::new();
        for path in with_extension("lbnn") {
            let (name, version) = parse_model_stem(utf8_stem(path)?)?;
            let model = CompiledModel::from_artifact_bytes(&read(path)?).map_err(|source| {
                ServeError::Artifact {
                    path: path.display().to_string(),
                    source,
                }
            })?;
            registry.insert_model(&name, &version, model, *options)?;
        }
        if registry.entries.is_empty() {
            return Err(ServeError::EmptyRegistry {
                dir: dir.display().to_string(),
            });
        }
        // Apply any `.lbnnp` deltas sitting next to their base
        // artifacts: `xor@3.lbnnp` patches the entry loaded from
        // `xor@3.lbnn`. Startup patching reuses the same path as live
        // patching, so a delta that would be rejected over the wire is
        // rejected here too (and names its file).
        for path in with_extension("lbnnp") {
            let stem = utf8_stem(path)?;
            let (name, version) = parse_model_stem(stem)?;
            let id = format!("{name}@{version}");
            let bytes = read(path)?;
            registry.apply_patch(&id, &bytes).map_err(|e| match e {
                ServeError::ModelNotFound { spec } => ServeError::BadModelName {
                    stem: stem.to_string(),
                    reason: format!("patch `{spec}.lbnnp` has no matching `.lbnn` artifact"),
                },
                ServeError::Core(source) => ServeError::Artifact {
                    path: path.display().to_string(),
                    source,
                },
                other => other,
            })?;
        }
        Ok(registry)
    }

    /// Applies a `.lbnnp` delta to the model resolved by `spec`
    /// (`name@version` exact, or bare `name` for the latest version) —
    /// see [`ModelEntry::apply_patch`]. Returns the runtime's new
    /// serving version.
    ///
    /// # Errors
    ///
    /// [`ServeError::ModelNotFound`] when `spec` resolves nothing;
    /// otherwise the entry's typed patch errors.
    pub fn apply_patch(&self, spec: &str, delta: &[u8]) -> Result<u64, ServeError> {
        let entry = self
            .resolve(spec)
            .ok_or_else(|| ServeError::ModelNotFound {
                spec: spec.to_string(),
            })?;
        entry.apply_patch(delta)
    }

    /// Register a [`CompiledModel`] under `name@version` (a single
    /// compiled block registers as its one-layer model,
    /// `CompiledModel::from(flow)`).
    pub fn insert_model(
        &mut self,
        name: &str,
        version: &str,
        model: CompiledModel,
        options: RuntimeOptions,
    ) -> Result<(), ServeError> {
        let id = format!("{name}@{version}");
        if self.by_id.contains_key(&id) {
            return Err(ServeError::DuplicateModel {
                name: name.to_string(),
                version: version.to_string(),
            });
        }
        // A model has at least one layer: the first takes the requests,
        // the last answers them.
        let layers = model.layers();
        let (first, last) = (&layers[0], &layers[layers.len() - 1]);
        let index = self.entries.len();
        self.entries.push(ModelEntry {
            name: name.to_string(),
            version: version.to_string(),
            num_inputs: first.flow().program.num_inputs,
            num_outputs: last.flow().program.outputs.len(),
            backend: first.backend().to_string(),
            runtime: Runtime::from_model(model.clone(), options)?,
            metrics: ModelMetrics::default(),
            source: Mutex::new(model),
        });
        self.by_id.insert(id, index);
        match self.latest.get(name) {
            Some(&prev) if !version_newer(version, &self.entries[prev].version) => {}
            _ => {
                self.latest.insert(name.to_string(), index);
            }
        }
        Ok(())
    }

    /// Resolve `name@version` (exact) or `name` (latest version).
    pub fn resolve(&self, spec: &str) -> Option<&ModelEntry> {
        let index = match spec.split_once('@') {
            Some(_) => *self.by_id.get(spec)?,
            None => *self.latest.get(spec)?,
        };
        Some(&self.entries[index])
    }

    /// All entries, in registration (= sorted filename) order.
    pub fn entries(&self) -> &[ModelEntry] {
        &self.entries
    }

    /// Drain every model's runtime: block until all in-flight requests
    /// everywhere have resolved. Part of graceful shutdown.
    pub fn drain_all(&self) {
        for entry in &self.entries {
            entry.runtime.drain();
        }
    }
}

impl Default for ModelRegistry {
    fn default() -> Self {
        ModelRegistry::new()
    }
}

/// The stem of a model or patch file, which must be utf-8 to name a
/// model.
fn utf8_stem(path: &Path) -> Result<&str, ServeError> {
    let stem = path.file_stem().and_then(|s| s.to_str());
    stem.ok_or_else(|| ServeError::BadModelName {
        stem: path.display().to_string(),
        reason: "stem is not valid utf-8".into(),
    })
}

/// Split a file stem into `(name, version)`; no `@` means version `1`.
fn parse_model_stem(stem: &str) -> Result<(String, String), ServeError> {
    let (name, version) = match stem.split_once('@') {
        Some((n, v)) => (n, v),
        None => (stem, "1"),
    };
    if name.is_empty() {
        return Err(ServeError::BadModelName {
            stem: stem.to_string(),
            reason: "empty model name".into(),
        });
    }
    if version.is_empty() || version.contains('@') {
        return Err(ServeError::BadModelName {
            stem: stem.to_string(),
            reason: "version must be non-empty and contain no `@`".into(),
        });
    }
    Ok((name.to_string(), version.to_string()))
}

/// Is version `a` newer than `b`? Numeric comparison when both parse as
/// integers, lexicographic otherwise.
fn version_newer(a: &str, b: &str) -> bool {
    match (a.parse::<u64>(), b.parse::<u64>()) {
        (Ok(a), Ok(b)) => a > b,
        _ => a > b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbnn_core::{Flow, LpuConfig};
    use lbnn_netlist::random::RandomDag;

    fn tiny_flow(seed: u64) -> Flow {
        let netlist = RandomDag::strict(12, 4, 8).generate(seed);
        Flow::builder(&netlist)
            .config(LpuConfig::new(8, 4))
            .compile()
            .expect("compile tiny flow")
    }

    /// A patch set negating every primary-output gate: the replacement's
    /// outputs differ from the base on *every* input, so a swap is
    /// always observable.
    fn negate_output_gates(flow: &Flow) -> lbnn_netlist::PatchSet {
        let out_ids: std::collections::BTreeSet<_> =
            flow.netlist.outputs().iter().map(|o| o.node).collect();
        let patches: lbnn_netlist::PatchSet = out_ids
            .iter()
            .map(|&id| flow.netlist.node(id))
            .zip(out_ids.iter())
            .filter_map(|(node, &id)| {
                node.op()
                    .negated()
                    .filter(|_| node.op().is_executable())
                    .map(|neg| (id, neg))
            })
            .collect();
        assert!(!patches.is_empty(), "flow has no patchable output gates");
        patches
    }

    #[test]
    fn stem_parsing() {
        assert_eq!(
            parse_model_stem("xor@3").unwrap(),
            ("xor".into(), "3".into())
        );
        assert_eq!(parse_model_stem("xor").unwrap(), ("xor".into(), "1".into()));
        assert_eq!(
            parse_model_stem("deep@2024.1").unwrap(),
            ("deep".into(), "2024.1".into())
        );
        assert!(parse_model_stem("@3").is_err());
        assert!(parse_model_stem("a@").is_err());
        assert!(parse_model_stem("a@b@c").is_err());
    }

    #[test]
    fn version_ordering_is_numeric_then_lexicographic() {
        assert!(version_newer("10", "9"));
        assert!(!version_newer("9", "10"));
        assert!(version_newer("2024.2", "2024.1"));
        assert!(!version_newer("3", "3"));
    }

    #[test]
    fn resolve_exact_and_latest() {
        let mut registry = ModelRegistry::new();
        let options = RuntimeOptions::default();
        registry
            .insert_model("xor", "1", tiny_flow(1).into(), options)
            .unwrap();
        registry
            .insert_model("xor", "10", tiny_flow(2).into(), options)
            .unwrap();
        registry
            .insert_model("xor", "9", tiny_flow(3).into(), options)
            .unwrap();
        registry
            .insert_model("and", "2", tiny_flow(4).into(), options)
            .unwrap();
        assert_eq!(registry.resolve("xor@9").unwrap().version, "9");
        // Bare name → numerically-latest version, not lexicographic max.
        assert_eq!(registry.resolve("xor").unwrap().version, "10");
        assert_eq!(registry.resolve("and").unwrap().id(), "and@2");
        assert!(registry.resolve("xor@7").is_none());
        assert!(registry.resolve("nope").is_none());
        assert_eq!(registry.entries().len(), 4);
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let mut registry = ModelRegistry::new();
        let options = RuntimeOptions::default();
        registry
            .insert_model("m", "1", tiny_flow(1).into(), options)
            .unwrap();
        let err = registry
            .insert_model("m", "1", tiny_flow(2).into(), options)
            .unwrap_err();
        assert!(matches!(err, ServeError::DuplicateModel { .. }));
    }

    #[test]
    fn infer_matches_direct_runtime_and_counts_outcomes() {
        let mut registry = ModelRegistry::new();
        registry
            .insert_model("m", "1", tiny_flow(5).into(), RuntimeOptions::default())
            .unwrap();
        let entry = registry.resolve("m").unwrap();
        let bits: Vec<bool> = (0..entry.num_inputs).map(|i| i % 3 == 0).collect();
        let out = match entry.infer(&bits) {
            InferOutcome::Ok(bits) => bits,
            other => panic!("unexpected outcome: {other:?}"),
        };
        assert_eq!(out.len(), entry.num_outputs);
        // Wrong arity is a BadArity, and is counted separately.
        assert!(matches!(entry.infer(&[true]), InferOutcome::BadArity(_)));
        let (ok, shed, bad, failed) = entry.metrics.snapshot();
        assert_eq!((ok, shed, bad, failed), (1, 0, 1, 0));
        registry.drain_all();
    }

    #[test]
    fn load_dir_discovers_both_artifact_kinds() {
        let dir = std::env::temp_dir().join(format!("lbnn-serve-registry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        tiny_flow(7).save(dir.join("alpha@2.lbnn")).unwrap();
        tiny_flow(8).save(dir.join("beta.lbnn")).unwrap();
        std::fs::write(dir.join("README.txt"), "not an artifact").unwrap();
        let registry = ModelRegistry::load_dir(&dir, &RuntimeOptions::default()).unwrap();
        assert_eq!(registry.entries().len(), 2);
        assert_eq!(registry.resolve("alpha").unwrap().id(), "alpha@2");
        assert_eq!(registry.resolve("beta").unwrap().version, "1");
        // A corrupt artifact fails the whole load with its path named.
        std::fs::write(dir.join("bad@1.lbnn"), b"garbage").unwrap();
        let err = ModelRegistry::load_dir(&dir, &RuntimeOptions::default()).unwrap_err();
        assert!(matches!(err, ServeError::Artifact { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `.lbnnp` delta negating a few gates: applying it through the
    /// registry hot-swaps the runtime, flips the served outputs to the
    /// patched oracle, and bumps the serving version; errors are typed
    /// and leave the entry serving unchanged.
    #[test]
    fn apply_patch_swaps_the_served_compile() {
        let flow = tiny_flow(9);
        let patches = negate_output_gates(&flow);
        let delta = flow.make_delta(&patches).unwrap();
        let patched_flow = flow.apply_patches(&patches).unwrap();
        let bits: Vec<bool> = (0..flow.program.num_inputs).map(|i| i % 2 == 0).collect();
        let base_want = flow.netlist.eval_bools(&bits);
        let patched_want = patched_flow.netlist.eval_bools(&bits);
        assert_ne!(base_want, patched_want, "patch must be observable");

        let mut registry = ModelRegistry::new();
        registry
            .insert_model("m", "1", flow.into(), RuntimeOptions::default())
            .unwrap();
        let entry = registry.resolve("m").unwrap();
        let before = match entry.infer(&bits) {
            InferOutcome::Ok(out) => out,
            other => panic!("unexpected outcome: {other:?}"),
        };
        assert_eq!(before, base_want);

        // Unknown spec and corrupt delta are typed, non-destructive.
        assert!(matches!(
            registry.apply_patch("nope", &delta).unwrap_err(),
            ServeError::ModelNotFound { .. }
        ));
        assert!(matches!(
            registry.apply_patch("m", b"garbage").unwrap_err(),
            ServeError::Core(_)
        ));
        assert_eq!(registry.resolve("m").unwrap().stats().version, 0);

        let version = registry.apply_patch("m", &delta).unwrap();
        assert_eq!(version, 1);
        let entry = registry.resolve("m").unwrap();
        assert_eq!(entry.stats().version, 1);
        assert_eq!(entry.stats().swaps, 1);
        let after = match entry.infer(&bits) {
            InferOutcome::Ok(out) => out,
            other => panic!("unexpected outcome: {other:?}"),
        };
        let want: Vec<bool> = patched_flow.source.eval_bools(&bits);
        let outputs = patched_flow.netlist.outputs().len();
        assert_eq!(after.len(), outputs);
        assert_eq!(after, want[want.len() - outputs..].to_vec());

        // The stored source is now the patched artifact: the same delta
        // no longer binds (deltas chain), with a typed BaseMismatch.
        let err = registry.apply_patch("m", &delta).unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Core(lbnn_core::CoreError::Artifact(
                    lbnn_core::ArtifactError::BaseMismatch { .. }
                ))
            ),
            "{err:?}"
        );
        registry.drain_all();
    }

    /// `load_dir` applies `name@version.lbnnp` deltas found next to
    /// their base artifacts at startup; an orphan delta is an error.
    #[test]
    fn load_dir_applies_sidecar_patches() {
        let dir = std::env::temp_dir().join(format!("lbnn-serve-patch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let flow = tiny_flow(10);
        let patches = negate_output_gates(&flow);
        let delta = flow.make_delta(&patches).unwrap();
        let patched_flow = flow.apply_patches(&patches).unwrap();
        flow.save(dir.join("hot@2.lbnn")).unwrap();
        std::fs::write(dir.join("hot@2.lbnnp"), &delta).unwrap();

        let registry = ModelRegistry::load_dir(&dir, &RuntimeOptions::default()).unwrap();
        let entry = registry.resolve("hot").unwrap();
        assert_eq!(entry.stats().version, 1, "startup patch must swap");
        let bits: Vec<bool> = (0..entry.num_inputs).map(|i| i % 3 != 0).collect();
        let got = match entry.infer(&bits) {
            InferOutcome::Ok(out) => out,
            other => panic!("unexpected outcome: {other:?}"),
        };
        let want = patched_flow.source.eval_bools(&bits);
        let outputs = patched_flow.netlist.outputs().len();
        assert_eq!(got, want[want.len() - outputs..].to_vec());
        registry.drain_all();

        // An orphan delta (no matching .lbnn) fails the load by name.
        std::fs::write(dir.join("ghost@1.lbnnp"), &delta).unwrap();
        let err = ModelRegistry::load_dir(&dir, &RuntimeOptions::default()).unwrap_err();
        assert!(matches!(err, ServeError::BadModelName { .. }), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A flow's file is its one-layer model's file: a delta made
    /// against the flow patches the model written from it at load, and
    /// the model's delta patches the flow's file.
    #[test]
    fn a_flow_delta_patches_its_model_file_and_back() {
        let dir = std::env::temp_dir().join(format!("lbnn-serve-one-kind-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let flow = tiny_flow(12);
        let patches = negate_output_gates(&flow);
        let model = CompiledModel::from(flow.clone());
        model.save(dir.join("as_model@1.lbnn")).unwrap();
        let flow_delta = flow.make_delta(&patches).unwrap();
        std::fs::write(dir.join("as_model@1.lbnnp"), flow_delta).unwrap();
        flow.save(dir.join("as_flow@1.lbnn")).unwrap();
        let model_delta = model.make_delta(&[(0, patches.clone())]).unwrap();
        std::fs::write(dir.join("as_flow@1.lbnnp"), model_delta).unwrap();

        let registry = ModelRegistry::load_dir(&dir, &RuntimeOptions::default()).unwrap();
        let bits: Vec<bool> = (0..flow.program.num_inputs).map(|i| i % 4 != 1).collect();
        let base_want = flow.netlist.eval_bools(&bits);
        let want = flow
            .apply_patches(&patches)
            .unwrap()
            .netlist
            .eval_bools(&bits);
        assert_ne!(base_want, want, "patch must be observable");
        for id in ["as_model@1", "as_flow@1"] {
            let entry = registry.resolve(id).unwrap();
            assert_eq!(entry.stats().version, 1, "{id}: startup patch must swap");
            match entry.infer(&bits) {
                InferOutcome::Ok(out) => assert_eq!(out, want, "{id}"),
                other => panic!("{id}: unexpected outcome: {other:?}"),
            }
        }
        registry.drain_all();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_is_an_error() {
        let dir = std::env::temp_dir().join(format!("lbnn-serve-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = ModelRegistry::load_dir(&dir, &RuntimeOptions::default()).unwrap_err();
        assert!(matches!(err, ServeError::EmptyRegistry { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }
}

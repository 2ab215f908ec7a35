//! The in-database model store.
//!
//! The paper's pitch: models stored in the RDBMS inherit the guarantees of
//! operational data — transactional updates, versioning, auditability
//! (§1–§2). This store provides exactly those:
//!
//! * models are stored **serialized** (the bytes a `varbinary(max)` column
//!   would hold) and deserialized on load, so storage is honest;
//! * every store/update appends a new **version** atomically; readers
//!   always see a consistent latest version, version numbers only ever
//!   grow, and the newest [`RETAINED_VERSIONS`] stay loadable (memory is
//!   bounded by the models stored, not by how often they were updated);
//! * every mutation is recorded in an **audit log**.

use parking_lot::RwLock;
use raven_ml::{serialize, Pipeline};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Store errors.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    NotFound(String),
    VersionNotFound { model: String, version: u32 },
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFound(m) => write!(f, "model not found: {m}"),
            StoreError::VersionNotFound { model, version } => {
                write!(f, "model {model} has no version {version}")
            }
            StoreError::Corrupt(m) => write!(f, "stored model is corrupt: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// One audit-log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEntry {
    /// Monotone sequence number.
    pub seq: u64,
    /// `store` / `update` / `delete`.
    pub action: String,
    pub model: String,
    pub version: u32,
}

/// How many of a model's most recent versions keep their serialized
/// bytes (and so stay loadable through [`ModelStore::get_version`]).
/// Older versions are dropped: a store that is updated for as long as the
/// server runs must not grow with the number of updates.
pub const RETAINED_VERSIONS: usize = 8;

struct ModelVersions {
    /// Version number of the newest entry; counts every store of this
    /// name, not the retained ones.
    latest: u32,
    /// The deserialized latest version — the only live pipeline the
    /// store holds (what a warm model cache holds).
    pipeline: Arc<Pipeline>,
    /// Serialized bytes of the newest [`RETAINED_VERSIONS`] versions,
    /// oldest first; the back is `latest`.
    bytes: VecDeque<Arc<Vec<u8>>>,
}

impl ModelVersions {
    /// The stored bytes of `version`, if it is still retained.
    fn bytes_of(&self, version: u32) -> Option<&Arc<Vec<u8>>> {
        let age = self.latest.checked_sub(version)? as usize;
        self.bytes
            .len()
            .checked_sub(age + 1)
            .map(|i| &self.bytes[i])
    }
}

#[derive(Default)]
struct Inner {
    models: HashMap<String, ModelVersions>,
    audit: Vec<AuditEntry>,
    seq: u64,
}

impl Inner {
    fn log(&mut self, action: &str, model: &str, version: u32) {
        self.seq += 1;
        self.audit.push(AuditEntry {
            seq: self.seq,
            action: action.to_string(),
            model: model.to_string(),
            version,
        });
    }
}

/// Thread-safe, versioned, audited model storage.
#[derive(Default)]
pub struct ModelStore {
    inner: RwLock<Inner>,
}

impl ModelStore {
    pub fn new() -> Self {
        ModelStore::default()
    }

    /// Store a pipeline under `name`; returns the new version number
    /// (1-based). Storing an existing name appends a version — the
    /// transactional model update of the paper's §2 — and retires the
    /// version that falls out of the [`RETAINED_VERSIONS`] window.
    pub fn store(&self, name: &str, pipeline: Pipeline) -> u32 {
        let bytes = Arc::new(serialize::to_bytes(&pipeline));
        let pipeline = Arc::new(pipeline);
        let mut inner = self.inner.write();
        let (version, retired) = match inner.models.get_mut(name) {
            Some(versions) => {
                versions.latest += 1;
                versions.bytes.push_back(bytes);
                let old_bytes = if versions.bytes.len() > RETAINED_VERSIONS {
                    versions.bytes.pop_front()
                } else {
                    None
                };
                let old_pipeline = std::mem::replace(&mut versions.pipeline, pipeline);
                (versions.latest, Some((old_pipeline, old_bytes)))
            }
            None => {
                inner.models.insert(
                    name.to_string(),
                    ModelVersions {
                        latest: 1,
                        pipeline,
                        bytes: VecDeque::from([bytes]),
                    },
                );
                (1, None)
            }
        };
        inner.log(if version == 1 { "store" } else { "update" }, name, version);
        // Freeing a forest is a walk over every node: not under the lock
        // that every reader of every model waits on.
        drop(inner);
        drop(retired);
        version
    }

    /// Latest version of a model.
    pub fn get(&self, name: &str) -> Result<Arc<Pipeline>, StoreError> {
        self.get_latest(name).map(|(_, pipeline)| pipeline)
    }

    /// Latest version of a model together with its version number, read
    /// under one lock so the two always belong together.
    pub fn get_latest(&self, name: &str) -> Result<(u32, Arc<Pipeline>), StoreError> {
        self.inner
            .read()
            .models
            .get(name)
            .map(|v| (v.latest, v.pipeline.clone()))
            .ok_or_else(|| StoreError::NotFound(name.to_string()))
    }

    /// A specific version (1-based). The latest is the live pipeline;
    /// an older one inside the [`RETAINED_VERSIONS`] window is
    /// deserialized from its stored bytes; anything older is gone.
    pub fn get_version(&self, name: &str, version: u32) -> Result<Arc<Pipeline>, StoreError> {
        let bytes = {
            let inner = self.inner.read();
            let versions = inner
                .models
                .get(name)
                .ok_or_else(|| StoreError::NotFound(name.to_string()))?;
            if version == versions.latest {
                return Ok(versions.pipeline.clone());
            }
            versions
                .bytes_of(version)
                .cloned()
                .ok_or(StoreError::VersionNotFound {
                    model: name.to_string(),
                    version,
                })?
        };
        serialize::from_bytes(&bytes)
            .map(Arc::new)
            .map_err(|e| StoreError::Corrupt(e.to_string()))
    }

    /// The stored bytes of the latest version (what `SELECT model FROM
    /// scoring_models` would return).
    pub fn get_bytes(&self, name: &str) -> Result<Arc<Vec<u8>>, StoreError> {
        let inner = self.inner.read();
        inner
            .models
            .get(name)
            .and_then(|v| v.bytes.back())
            .cloned()
            .ok_or_else(|| StoreError::NotFound(name.to_string()))
    }

    /// Reload the latest version from its stored bytes (exercises the
    /// serialization path — used to model cold model loads).
    pub fn load_from_bytes(&self, name: &str) -> Result<Pipeline, StoreError> {
        let bytes = self.get_bytes(name)?;
        serialize::from_bytes(&bytes).map_err(|e| StoreError::Corrupt(e.to_string()))
    }

    /// Delete a model entirely.
    pub fn delete(&self, name: &str) -> Result<(), StoreError> {
        let mut inner = self.inner.write();
        let versions = inner
            .models
            .remove(name)
            .ok_or_else(|| StoreError::NotFound(name.to_string()))?;
        inner.log("delete", name, versions.latest);
        drop(inner);
        Ok(())
    }

    /// Latest version number of a model (0 if absent).
    pub fn latest_version(&self, name: &str) -> u32 {
        self.inner
            .read()
            .models
            .get(name)
            .map(|v| v.latest)
            .unwrap_or(0)
    }

    /// All model names, sorted.
    pub fn model_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.read().models.keys().cloned().collect();
        names.sort();
        names
    }

    /// The audit log (clone).
    pub fn audit_log(&self) -> Vec<AuditEntry> {
        self.inner.read().audit.clone()
    }
}

impl raven_sql::ModelResolver for ModelStore {
    fn resolve(&self, name: &str) -> Option<Arc<Pipeline>> {
        self.get(name).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_ml::featurize::Transform;
    use raven_ml::{Estimator, FeatureStep, LinearKind, LinearModel};

    fn pipeline(w: f64) -> Pipeline {
        Pipeline::new(
            vec![FeatureStep::new("x", Transform::Identity)],
            Estimator::Linear(LinearModel::new(vec![w], 0.0, LinearKind::Regression).unwrap()),
        )
        .unwrap()
    }

    #[test]
    fn store_get_roundtrip() {
        let store = ModelStore::new();
        assert_eq!(store.store("m", pipeline(1.0)), 1);
        let p = store.get("m").unwrap();
        assert_eq!(p.predict_raw(&[2.0], 1).unwrap(), vec![2.0]);
        assert!(store.get("ghost").is_err());
    }

    #[test]
    fn versioning_and_transactional_update() {
        let store = ModelStore::new();
        store.store("m", pipeline(1.0));
        assert_eq!(store.store("m", pipeline(2.0)), 2);
        // Latest is v2; v1 still retrievable.
        assert_eq!(
            store.get("m").unwrap().predict_raw(&[1.0], 1).unwrap(),
            vec![2.0]
        );
        assert_eq!(
            store
                .get_version("m", 1)
                .unwrap()
                .predict_raw(&[1.0], 1)
                .unwrap(),
            vec![1.0]
        );
        assert!(store.get_version("m", 3).is_err());
        assert!(store.get_version("m", 0).is_err());
        assert_eq!(store.latest_version("m"), 2);
    }

    #[test]
    fn retention_is_bounded_and_versions_stay_monotone() {
        let store = ModelStore::new();
        let mut handed_out = Vec::new();
        for v in 1..=1_000u32 {
            assert_eq!(store.store("m", pipeline(v as f64)), v);
            handed_out.push(Arc::downgrade(&store.get("m").unwrap()));
        }
        // Exactly one deserialized pipeline is alive: the latest.
        let live = handed_out.iter().filter(|w| w.strong_count() > 0).count();
        assert_eq!(live, 1, "retired versions must be freed");
        assert_eq!(Arc::strong_count(&store.get("m").unwrap()), 2);
        // The window: latest-7 ..= latest load (older ones from bytes).
        let retained = store.inner.read().models["m"].bytes.len();
        assert_eq!(retained, RETAINED_VERSIONS);
        for v in 993..=1_000u32 {
            let p = store.get_version("m", v).unwrap();
            assert_eq!(p.predict_raw(&[1.0], 1).unwrap(), vec![v as f64]);
        }
        for gone in [0, 1, 992, 1_001] {
            assert_eq!(
                store.get_version("m", gone).unwrap_err(),
                StoreError::VersionNotFound {
                    model: "m".into(),
                    version: gone
                }
            );
        }
        // Numbering continues past the window, and the audit log kept
        // every mutation.
        assert_eq!(store.latest_version("m"), 1_000);
        assert_eq!(store.store("m", pipeline(0.5)), 1_001);
        assert_eq!(store.get_latest("m").unwrap().0, 1_001);
        assert_eq!(store.audit_log().len(), 1_001);
    }

    #[test]
    fn bytes_are_real_serialization() {
        let store = ModelStore::new();
        store.store("m", pipeline(3.0));
        let loaded = store.load_from_bytes("m").unwrap();
        assert_eq!(loaded.predict_raw(&[2.0], 1).unwrap(), vec![6.0]);
        assert!(!store.get_bytes("m").unwrap().is_empty());
    }

    #[test]
    fn audit_log_records_mutations() {
        let store = ModelStore::new();
        store.store("a", pipeline(1.0));
        store.store("a", pipeline(2.0));
        store.store("b", pipeline(3.0));
        store.delete("a").unwrap();
        let log = store.audit_log();
        let actions: Vec<&str> = log.iter().map(|e| e.action.as_str()).collect();
        assert_eq!(actions, vec!["store", "update", "store", "delete"]);
        // Sequence numbers are monotone.
        assert!(log.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(store.model_names(), vec!["b"]);
        assert!(store.delete("a").is_err());
    }

    #[test]
    fn resolver_interface() {
        use raven_sql::ModelResolver;
        let store = ModelStore::new();
        store.store("m", pipeline(1.0));
        assert!(store.resolve("m").is_some());
        assert!(store.resolve("nope").is_none());
    }

    #[test]
    fn concurrent_access() {
        let store = Arc::new(ModelStore::new());
        store.store("m", pipeline(1.0));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let s = store.clone();
                std::thread::spawn(move || {
                    s.store("m", pipeline(i as f64));
                    s.get("m").unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.latest_version("m"), 5);
    }
}

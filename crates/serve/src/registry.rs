//! The model registry: named model versions served concurrently, with
//! atomic hot-reload and a shared kernel cache.
//!
//! # Model versions
//!
//! The registry maps a **name** (`"default"`, `"paper"`, …) to a
//! [`ModelEntry`]: an immutable `Arc` bundling the model's [`Session`],
//! its **generation** number, and where it came from. `/v1/predict`
//! resolves a name to an entry once per request (or once per batch group —
//! see `crate::batcher`) and holds that `Arc` until the response is
//! written, so:
//!
//! * **Hot-reload is atomic.** [`ModelRegistry::install`] /
//!   [`ModelRegistry::load_file`] build the new entry *outside* the lock
//!   and swap the map pointer under it. In-flight requests keep serving
//!   from the entry they resolved — no connection is dropped, no request
//!   observes half a model.
//! * **Versions are observable.** Every swap bumps the name's generation
//!   (monotone per name for the registry's lifetime, surviving
//!   remove/re-add, so a generation seen twice is *always* the same
//!   weights). Prediction responses carry `{"model": {"name", "generation"}}`
//!   and per-model metrics are labeled with both.
//!
//! # Shared cache
//!
//! All sessions are created over one [`SharedCache`]
//! ([`Session::with_shared`]), whose kernel entries (lowered function plus
//! query database) are keyed by each model's prepare fingerprint — so a
//! hot-reload of a same-architecture retrain keeps every memoized design
//! warm, while models with different graph options never alias.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use obs::log::Level;
use obs::Json;
use qor_core::{HierarchicalModel, Session, SharedCache};

use crate::error::{ApiCode, ApiError};

/// One immutable registered model version.
///
/// Entries are shared as `Arc`s; a request that resolved an entry keeps
/// predicting through it even if the registry has since swapped the name
/// to a newer generation.
#[derive(Debug)]
pub struct ModelEntry {
    /// Registry name this entry was installed under.
    pub name: String,
    /// Monotone version counter of `name` (1-based; never reused).
    pub generation: u64,
    /// Where the weights came from (checkpoint path, `"trained"`, …).
    pub source: String,
    /// The per-version inference session (over the registry's shared
    /// cache).
    session: Arc<Session>,
    /// Predictions served by this entry (this generation only).
    predictions: AtomicU64,
}

impl ModelEntry {
    /// The session answering predictions for this version.
    pub fn session(&self) -> &Arc<Session> {
        &self.session
    }

    /// `name@generation`, the human-readable version tag used in labels.
    pub fn tag(&self) -> String {
        format!("{}@{}", self.name, self.generation)
    }

    /// Counts one served prediction.
    pub fn count_prediction(&self) {
        self.predictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Predictions served by this generation so far.
    pub fn predictions(&self) -> u64 {
        self.predictions.load(Ordering::Relaxed)
    }

    /// The `GET /v1/models` row for this entry.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(&self.name)),
            ("generation", Json::UInt(self.generation)),
            ("source", Json::str(&self.source)),
            ("predictions", Json::UInt(self.predictions())),
            (
                "prepare_fingerprint",
                Json::Str(format!(
                    "{:016x}",
                    self.session.model().prepare_fingerprint()
                )),
            ),
        ])
    }
}

struct Inner {
    models: BTreeMap<String, Arc<ModelEntry>>,
    /// Next generation per name. Deliberately never forgets a name, even
    /// after [`ModelRegistry::remove`]: a re-added name continues its old
    /// sequence, so `(name, generation)` uniquely identifies weights for
    /// the registry's whole lifetime.
    next_gen: BTreeMap<String, u64>,
}

/// The name → model-version map behind `/v1/models` (see the
/// [module docs](self)).
pub struct ModelRegistry {
    cache: Arc<SharedCache>,
    inner: RwLock<Inner>,
}

/// The reserved name resolved when a request names no model.
pub const DEFAULT_MODEL: &str = "default";

impl ModelRegistry {
    /// An empty registry whose sessions will share `cache`.
    pub fn new(cache: Arc<SharedCache>) -> ModelRegistry {
        ModelRegistry {
            cache,
            inner: RwLock::new(Inner {
                models: BTreeMap::new(),
                next_gen: BTreeMap::new(),
            }),
        }
    }

    /// A registry seeded with one model under [`DEFAULT_MODEL`], its cache
    /// shared for later versions. `capacity` bounds the retained kernels.
    pub fn with_default(model: HierarchicalModel, capacity: usize) -> ModelRegistry {
        let registry = ModelRegistry::new(Arc::new(SharedCache::with_capacity(capacity)));
        registry.install(DEFAULT_MODEL, model, "startup");
        registry
    }

    /// The shared kernel cache behind every session.
    pub fn cache(&self) -> &Arc<SharedCache> {
        &self.cache
    }

    /// Wraps an already-built session as the sole [`DEFAULT_MODEL`] —
    /// the single-model compatibility path behind `Server::bind`. The
    /// session's own cache becomes the registry's shared cache, so later
    /// hot-reloads keep its capacity and contents.
    pub fn from_session(session: Session) -> ModelRegistry {
        let registry = ModelRegistry::new(session.shared_cache().clone());
        registry.install_session(DEFAULT_MODEL, Arc::new(session), "startup");
        registry
    }

    /// Installs (or hot-swaps) `model` under `name`, returning the new
    /// entry. The session is built outside the registry lock; in-flight
    /// requests on a previous generation are unaffected.
    pub fn install(&self, name: &str, model: HierarchicalModel, source: &str) -> Arc<ModelEntry> {
        let session = Arc::new(Session::with_shared(model, self.cache.clone()));
        self.install_session(name, session, source)
    }

    fn install_session(&self, name: &str, session: Arc<Session>, source: &str) -> Arc<ModelEntry> {
        let mut inner = self.inner.write().unwrap();
        let gen_counter = inner.next_gen.entry(name.to_string()).or_insert(1);
        let generation = *gen_counter;
        *gen_counter += 1;
        let entry = Arc::new(ModelEntry {
            name: name.to_string(),
            generation,
            source: source.to_string(),
            session,
            predictions: AtomicU64::new(0),
        });
        inner.models.insert(name.to_string(), entry.clone());
        drop(inner);
        obs::metrics::counter_add("serve/registry/installs", 1);
        if obs::log::enabled(Level::Info) {
            obs::log::event(
                Level::Info,
                "registry.install",
                &[
                    ("model", Json::str(name)),
                    ("generation", Json::UInt(generation)),
                    ("source", Json::str(source)),
                ],
            );
        }
        entry
    }

    /// Loads a `.qorckpt` checkpoint and installs it under `name`
    /// (the `PUT /v1/models/<name>` reload path).
    ///
    /// # Errors
    ///
    /// Typed [`ApiError`]s for missing/corrupt/future-format files; the
    /// registry is untouched on failure.
    pub fn load_file(&self, name: &str, path: &str) -> Result<Arc<ModelEntry>, ApiError> {
        let model = crate::checkpoint::load_model_file(path)?;
        Ok(self.install(name, model, path))
    }

    /// Resolves `name` to its current entry.
    ///
    /// # Errors
    ///
    /// [`ApiCode::UnknownModel`] when nothing is registered under `name`.
    pub fn get(&self, name: &str) -> Result<Arc<ModelEntry>, ApiError> {
        self.inner
            .read()
            .unwrap()
            .models
            .get(name)
            .cloned()
            .ok_or_else(|| ApiError::new(ApiCode::UnknownModel, format!("no model named {name:?}")))
    }

    /// The entry a request that names no model gets: [`DEFAULT_MODEL`] if
    /// registered, else the sole registered model.
    ///
    /// # Errors
    ///
    /// [`ApiCode::UnknownModel`] when the registry is empty or holds
    /// several models none of which is the default (the client must then
    /// name one).
    pub fn default_entry(&self) -> Result<Arc<ModelEntry>, ApiError> {
        let inner = self.inner.read().unwrap();
        if let Some(entry) = inner.models.get(DEFAULT_MODEL) {
            return Ok(entry.clone());
        }
        if inner.models.len() == 1 {
            return Ok(inner.models.values().next().unwrap().clone());
        }
        Err(ApiError::new(
            ApiCode::UnknownModel,
            if inner.models.is_empty() {
                "no models registered".to_string()
            } else {
                format!(
                    "no \"{DEFAULT_MODEL}\" model; name one of: {}",
                    inner.models.keys().cloned().collect::<Vec<_>>().join(", ")
                )
            },
        ))
    }

    /// Unregisters `name`. In-flight requests holding the entry finish
    /// normally; its generation number is never reused.
    ///
    /// # Errors
    ///
    /// [`ApiCode::UnknownModel`] for unknown names;
    /// [`ApiCode::Conflict`] when `name` is the last registered model (a
    /// serving process must always be able to answer `default_entry`).
    pub fn remove(&self, name: &str) -> Result<Arc<ModelEntry>, ApiError> {
        let mut inner = self.inner.write().unwrap();
        if !inner.models.contains_key(name) {
            return Err(ApiError::new(
                ApiCode::UnknownModel,
                format!("no model named {name:?}"),
            ));
        }
        if inner.models.len() == 1 {
            return Err(ApiError::new(
                ApiCode::Conflict,
                format!("refusing to remove {name:?}: it is the last registered model"),
            ));
        }
        let entry = inner.models.remove(name).expect("checked above");
        drop(inner);
        if obs::log::enabled(Level::Info) {
            obs::log::event(
                Level::Info,
                "registry.remove",
                &[
                    ("model", Json::str(name)),
                    ("generation", Json::UInt(entry.generation)),
                ],
            );
        }
        Ok(entry)
    }

    /// Every registered entry, name-ordered (the `GET /v1/models` listing).
    pub fn list(&self) -> Vec<Arc<ModelEntry>> {
        self.inner
            .read()
            .unwrap()
            .models
            .values()
            .cloned()
            .collect()
    }

    /// Number of registered model versions.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().models.len()
    }

    /// Whether no model is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qor_core::TrainOptions;

    fn tiny_model(seed: u64) -> HierarchicalModel {
        HierarchicalModel::new(&TrainOptions::quick().with_hidden(12).with_seed(seed))
    }

    #[test]
    fn install_bumps_generations_monotonically() {
        let registry = ModelRegistry::with_default(tiny_model(1), 16);
        assert_eq!(registry.get("default").unwrap().generation, 1);
        let second = registry.install("default", tiny_model(2), "retrain");
        assert_eq!(second.generation, 2);
        assert_eq!(registry.get("default").unwrap().generation, 2);
        // an older Arc kept by an in-flight request still works
        let held = registry.get("default").unwrap();
        registry.install("default", tiny_model(3), "retrain");
        assert_eq!(held.generation, 2);
        held.session()
            .predict_kernel("gemm", &pragma::PragmaConfig::default())
            .unwrap();
    }

    #[test]
    fn generations_survive_remove_and_re_add() {
        let registry = ModelRegistry::with_default(tiny_model(1), 16);
        registry.install("alt", tiny_model(2), "x");
        registry.remove("alt").unwrap();
        let back = registry.install("alt", tiny_model(3), "y");
        assert_eq!(
            back.generation, 2,
            "a re-added name must continue its sequence, not restart at 1"
        );
    }

    #[test]
    fn default_resolution_rules() {
        let registry = ModelRegistry::new(Arc::new(SharedCache::with_capacity(16)));
        assert_eq!(
            registry.default_entry().unwrap_err().code,
            ApiCode::UnknownModel
        );
        // a single non-"default" model is the implicit default
        registry.install("only", tiny_model(1), "x");
        assert_eq!(registry.default_entry().unwrap().name, "only");
        // two models, neither "default": the client must choose
        registry.install("other", tiny_model(2), "x");
        assert_eq!(
            registry.default_entry().unwrap_err().code,
            ApiCode::UnknownModel
        );
        // an explicit "default" wins
        registry.install(DEFAULT_MODEL, tiny_model(3), "x");
        assert_eq!(registry.default_entry().unwrap().name, DEFAULT_MODEL);
    }

    #[test]
    fn remove_guards_the_last_model_and_unknown_names() {
        let registry = ModelRegistry::with_default(tiny_model(1), 16);
        assert_eq!(
            registry.remove("missing").unwrap_err().code,
            ApiCode::UnknownModel
        );
        assert_eq!(
            registry.remove("default").unwrap_err().code,
            ApiCode::Conflict
        );
        registry.install("alt", tiny_model(2), "x");
        registry.remove("alt").unwrap();
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn same_architecture_versions_share_the_prepared_cache() {
        let registry = ModelRegistry::with_default(tiny_model(1), 16);
        let cfg = pragma::PragmaConfig::default();
        let before = registry.get("default").unwrap();
        before.session().predict_kernel("gemm", &cfg).unwrap();
        registry.install("default", tiny_model(99), "retrain");
        let after = registry.get("default").unwrap();
        after.session().predict_kernel("gemm", &cfg).unwrap();
        let stats = registry.cache().stats();
        assert_eq!(stats.misses, 1, "front half stays warm across reload");
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn load_file_round_trips_a_checkpoint_and_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("qor-registry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.qorckpt");
        let model = tiny_model(5);
        crate::checkpoint::save_model_file(&path, &model).unwrap();
        let registry = ModelRegistry::with_default(tiny_model(1), 16);
        let entry = registry
            .load_file("default", path.to_str().unwrap())
            .unwrap();
        assert_eq!(entry.generation, 2);
        // loaded weights must be the saved ones, not the startup model's
        let cfg = pragma::PragmaConfig::default();
        let direct = Session::new(model).predict_kernel("mvt", &cfg).unwrap();
        assert_eq!(entry.session().predict_kernel("mvt", &cfg).unwrap(), direct);
        let missing = registry.load_file("default", "/nonexistent/x.qorckpt");
        assert_eq!(missing.unwrap_err().code, ApiCode::Io);
        std::fs::write(&path, b"not a checkpoint").unwrap();
        let corrupt = registry.load_file("default", path.to_str().unwrap());
        assert_eq!(corrupt.unwrap_err().code, ApiCode::Corrupt);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

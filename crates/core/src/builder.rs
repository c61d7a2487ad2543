//! Parallel, content-addressed model construction.
//!
//! Detection compares finished CST-BBS models, so the [`ModelBuilder`] is
//! a bounded store of exactly those, in front of [`build_model`]:
//!
//! - **Parallelism**: [`ModelBuilder::build_batch_cst`] fans a batch out
//!   over std-only `thread::scope` workers (mirroring `engine.rs` — no new
//!   deps) with an index-ordered merge, so results come back in input
//!   order and byte-identical to the serial path for any job count.
//! - **Content addressing**: every finished model is stored under its
//!   canonical key — a single-line rendering of everything the pipeline
//!   reads: program instructions, victim, and the builder's
//!   [`ModelingConfig`] — in a bounded FIFO store with optional on-disk
//!   persistence (the `scaguard-modelcache v1` text format of
//!   [`crate::persist`]).
//!
//! ## Soundness
//!
//! A miss runs [`build_model`] with the builder's one config and keeps
//! only its model, so a served model equals the serial pipeline's by
//! construction. The key renders the program's instructions, the victim,
//! the CPU config, `path_cap` and the CST-replay cache geometry — all
//! that [`build_model`] reads. Program *name* and generator *tags* are
//! deliberately excluded: no modeling stage reads them, so two
//! differently-named but instruction-identical programs share one entry.
//! Lookups compare the whole key, so two programs can never alias.
//!
//! [`build_model`]: crate::modeling::build_model

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use sca_cpu::Victim;
use sca_isa::Program;

use crate::cst::CstBbs;
use crate::modeling::{build_model, ModelError, ModelingConfig};
use crate::persist::{self, LoadRepoError};

/// Bound on the model store (FIFO eviction).
const CAPACITY: usize = 4096;

/// A bounded store of finished models under their canonical keys,
/// evicting the oldest entry first. The map and the eviction queue share
/// each key's bytes.
#[derive(Debug, Default)]
struct Store {
    models: HashMap<Arc<str>, Arc<CstBbs>>,
    order: VecDeque<Arc<str>>,
}

impl Store {
    fn get(&self, key: &str) -> Option<Arc<CstBbs>> {
        self.models.get(key).cloned()
    }

    /// Insert (or replace) the model for `key`, evicting the oldest entry
    /// when over capacity.
    fn insert(&mut self, key: Arc<str>, model: Arc<CstBbs>) {
        if self.models.insert(Arc::clone(&key), model).is_some() {
            return;
        }
        self.order.push_back(key);
        if self.order.len() > CAPACITY {
            let oldest = self.order.pop_front().expect("nonempty");
            self.models.remove(&oldest);
        }
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    /// All `(canonical key, model)` pairs in insertion order.
    fn entries(&self) -> impl Iterator<Item = (&str, &CstBbs)> {
        self.order
            .iter()
            .map(|key| (&**key, self.models[key].as_ref()))
    }
}

/// Cache-effectiveness counters of one [`ModelBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BuilderStats {
    /// Models served from the store without rebuilding.
    pub hits: u64,
    /// Models built because the store did not hold them.
    pub misses: u64,
}

/// Batch model-construction engine: parallel across targets, with a
/// bounded content-addressed store of finished models. See the module
/// docs for the soundness argument.
///
/// All methods take `&self`; the builder is internally synchronized and
/// can be shared across threads (e.g. behind an [`Arc`]).
#[derive(Debug)]
pub struct ModelBuilder {
    config: ModelingConfig,
    /// The config part of every key, rendered once.
    config_key: String,
    jobs: usize,
    store: Mutex<Store>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_path: Option<PathBuf>,
    dirty: AtomicBool,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl ModelBuilder {
    /// A builder for `config` with a single worker.
    pub fn new(config: &ModelingConfig) -> ModelBuilder {
        ModelBuilder {
            config: config.clone(),
            config_key: format!(
                " | cpu {:?} | path_cap {} | cst_cache {:?}",
                config.cpu, config.path_cap, config.cst_cache
            ),
            jobs: 1,
            store: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_path: None,
            dirty: AtomicBool::new(false),
        }
    }

    /// Set the worker count for batch builds (`0` and `1` both mean
    /// serial).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> ModelBuilder {
        self.jobs = jobs.max(1);
        self
    }

    /// Attach an on-disk cache file: [`ModelBuilder::load_disk_cache`]
    /// reads its models into the store and
    /// [`ModelBuilder::save_disk_cache`] writes the store back.
    #[must_use]
    pub fn with_disk_cache(mut self, path: impl AsRef<Path>) -> ModelBuilder {
        self.disk_path = Some(path.as_ref().to_path_buf());
        self
    }

    /// Load the attached cache file's models into the store. A missing
    /// file, or no attached file, is an empty cache.
    ///
    /// # Errors
    ///
    /// Returns [`LoadRepoError::Io`] when the file exists but cannot be
    /// read, and [`LoadRepoError::Parse`] when it is malformed (a torn
    /// save, a foreign file). A malformed file loads nothing and is
    /// rewritten by the next [`ModelBuilder::save_disk_cache`].
    pub fn load_disk_cache(&self) -> Result<(), LoadRepoError> {
        let Some(path) = &self.disk_path else {
            return Ok(());
        };
        let entries = match persist::load_model_cache(path) {
            Ok(entries) => entries,
            Err(LoadRepoError::Io { error, .. }) if error.kind() == ErrorKind::NotFound => {
                return Ok(())
            }
            Err(e @ LoadRepoError::Parse { .. }) => {
                self.dirty.store(true, Ordering::Relaxed);
                return Err(e);
            }
            Err(e) => return Err(e),
        };
        let mut store = lock(&self.store);
        for (key, model) in entries {
            store.insert(key.into(), Arc::new(model));
        }
        Ok(())
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> BuilderStats {
        BuilderStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// The canonical key of one target:
    /// `insts … | victim … | cpu … | path_cap … | cst_cache …`. Existing
    /// `scaguard-modelcache v1` files hold keys in exactly this form.
    fn key(&self, program: &Program, victim: &Victim) -> String {
        let mut key = String::with_capacity(64 * program.insts().len() + self.config_key.len());
        write!(key, "insts {:?} | victim {victim:?}", program.insts()).expect("write to String");
        key.push_str(&self.config_key);
        key
    }

    /// Build (or recall) the detection model for one target.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from the pipeline. Errors are not
    /// cached; a failing target is retried on every call.
    pub fn build_cst(&self, program: &Program, victim: &Victim) -> Result<Arc<CstBbs>, ModelError> {
        let mut sp = sca_telemetry::span("builder.build");
        let key = self.key(program, victim);
        // The lookup's guard drops at the end of this statement: workers
        // sharing the builder never model under the store lock.
        let cached = lock(&self.store).get(&key);
        let hit = cached.is_some();
        let model = match cached {
            Some(model) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                model
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let model = Arc::new(build_model(program, victim, &self.config)?.cst_bbs);
                lock(&self.store).insert(key.into(), Arc::clone(&model));
                self.dirty.store(true, Ordering::Relaxed);
                model
            }
        };
        if sp.is_recording() {
            sp.attr("program", program.name());
            sp.attr("cached", hit);
            let counter = if hit {
                "modelcache.hits"
            } else {
                "modelcache.misses"
            };
            sca_telemetry::counter(counter, 1);
        }
        Ok(model)
    }

    /// Build a whole batch, fanning out over the builder's workers.
    /// Results are in `targets` order; each is byte-identical to a serial
    /// [`crate::modeling::build_model`] of the same target.
    pub fn build_batch_cst(
        &self,
        targets: &[(&Program, &Victim)],
    ) -> Vec<Result<Arc<CstBbs>, ModelError>> {
        self.build_batch_cst_jobs(targets, self.jobs)
    }

    /// [`ModelBuilder::build_batch_cst`] with a one-off worker count:
    /// index-claimed work, index-ordered merge (the `detector.rs` /
    /// `engine.rs` pattern).
    pub fn build_batch_cst_jobs(
        &self,
        targets: &[(&Program, &Victim)],
        jobs: usize,
    ) -> Vec<Result<Arc<CstBbs>, ModelError>> {
        let mut sp = sca_telemetry::span("builder.build_batch");
        let jobs = jobs.clamp(1, targets.len().max(1));
        if sp.is_recording() {
            sp.attr("targets", targets.len());
            sp.attr("jobs", jobs);
            sca_telemetry::counter("builder.jobs", jobs as u64);
        }
        if jobs <= 1 {
            return targets.iter().map(|(p, v)| self.build_cst(p, v)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<_>>> = targets.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= targets.len() {
                        break;
                    }
                    let (p, v) = targets[i];
                    *lock(&slots[i]) = Some(self.build_cst(p, v));
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("every target built")
            })
            .collect()
    }

    /// Write the model store to the attached disk cache (no-op without
    /// one, or when nothing changed since the last save/load).
    ///
    /// # Errors
    ///
    /// Returns [`LoadRepoError::Io`] on filesystem errors.
    pub fn save_disk_cache(&self) -> Result<(), LoadRepoError> {
        let Some(path) = &self.disk_path else {
            return Ok(());
        };
        if !self.dirty.swap(false, Ordering::Relaxed) {
            return Ok(());
        }
        persist::save_model_cache(lock(&self.store).entries(), path)
    }

    /// Number of cached models.
    pub fn len(&self) -> usize {
        lock(&self.store).len()
    }

    /// Whether the model store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cst::{Cst, CstStep};
    use sca_attacks::poc::{self, PocParams};

    /// A one-step model told apart by its block address.
    fn model(addr: u64) -> Arc<CstBbs> {
        Arc::new(CstBbs::new(vec![CstStep {
            bb_addr: addr,
            norm_insts: Vec::new(),
            cst: Cst::identity(),
            first_seen: 0,
        }]))
    }

    #[test]
    fn store_evicts_fifo_at_capacity() {
        let mut store = Store::default();
        for i in 0..=CAPACITY as u64 {
            store.insert(format!("k{i}").into(), model(i));
        }
        assert_eq!(store.len(), CAPACITY);
        assert_eq!(store.get("k0"), None, "oldest entry evicted");
        assert_eq!(store.get("k1"), Some(model(1)));
        let last = CAPACITY as u64;
        assert_eq!(store.get(&format!("k{last}")), Some(model(last)));
    }

    #[test]
    fn store_replaces_in_place() {
        let mut store = Store::default();
        store.insert("k".into(), model(1));
        store.insert("k".into(), model(2));
        assert_eq!(store.len(), 1);
        assert_eq!(store.get("k"), Some(model(2)));
    }

    #[test]
    fn store_entries_iterate_in_insertion_order() {
        let mut store = Store::default();
        for i in 0..4 {
            store.insert(format!("k{i}").into(), model(i));
        }
        let got: Vec<u64> = store.entries().map(|(_, m)| m.steps()[0].bb_addr).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn keys_separate_configs_and_targets() {
        let s1 = poc::flush_reload_iaik(&PocParams::default());
        let s2 = poc::prime_probe_iaik(&PocParams::default());
        let base = ModelingConfig::default();
        let mut other_replay = base.clone();
        other_replay.cst_cache.sets *= 2;
        let mut other_cap = base.clone();
        other_cap.path_cap += 1;

        let k = |s: &sca_attacks::Sample, c: &ModelingConfig| {
            ModelBuilder::new(c).key(&s.program, &s.victim)
        };
        assert_eq!(k(&s1, &base), k(&s1, &base));
        assert_ne!(k(&s1, &base), k(&s2, &base));
        assert_ne!(k(&s1, &base), k(&s1, &other_replay));
        assert_ne!(k(&s1, &base), k(&s1, &other_cap));
        // The layout `scaguard-modelcache v1` files were written with.
        assert_eq!(
            k(&s1, &base),
            format!(
                "insts {:?} | victim {:?} | cpu {:?} | path_cap {} | cst_cache {:?}",
                s1.program.insts(),
                s1.victim,
                base.cpu,
                base.path_cap,
                base.cst_cache
            )
        );
    }
}

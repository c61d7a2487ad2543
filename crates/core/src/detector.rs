//! The model repository and the similarity-based detector/classifier
//! (Section III-B.3).
//!
//! Classification is powered by the [`crate::engine`] similarity engine:
//! the repository's models are prepared (interned) once per detector,
//! together with the repository side of the bag bound
//! ([`crate::engine::BagBound`]); a scan threads the best distance seen so
//! far through the entries so later comparisons can be skipped by lower
//! bounds or abandoned mid-DTW, and batch workloads fan out over a
//! std-only worker pool ([`Detector::classify_batch`]). The best score and
//! verdict are always bitwise identical to the naive full scan; only
//! comparisons that provably cannot win are cut short.
//!
//! [`Detector::scan`] is the one scan: a [`ScanRequest`] seeds its cutoff,
//! bounds it with a deadline, or spreads it over worker threads.
//! [`Detector::classify`] models a program and scans it, and
//! [`Detector::classify_model_full`] is the exhaustive reference.
//!
//! A scan finds the best entry and nothing else (DESIGN.md §15).
//! **Phase 0** gives every entry the `O(log)` interval-envelope bound
//! ([`crate::engine::lb_interval`]) and, when a [`RepoIndex`] is
//! attached, a sort key; it also histograms the target's blocks for the
//! bag bound. **Phase 1** visits entries — in repository order, or
//! cheapest-sort-key-first with an index — under the best-so-far cutoff:
//! the envelope, then the bag bound, then the early-abandoned DTW, each
//! only if the one before failed to rule the entry out. With an index the
//! scan *stops* at the first sort key above the cutoff. A [`Detection`]
//! carries the winner (minimum distance, later index on ties) and its
//! exact score: a function of the target and the repository alone, never
//! of the visit order, which is what makes indexed, linear, seeded and
//! parallel scans byte-identical.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use sca_attacks::AttackFamily;
use sca_cpu::Victim;
use sca_isa::Program;
use sca_telemetry::Json;

use crate::builder::ModelBuilder;
use crate::cst::CstBbs;
use crate::engine::{
    lb_interval, BagBound, Bounded, DeadlineExceeded, EngineStats, PreparedModel, SimilarityEngine,
};
use crate::index::{IndexConfig, IndexMismatch, RepoIndex};
use crate::modeling::{build_model, fnv1a, ModelError, ModelingConfig};
use crate::persist::repository_to_string;

/// One PoC model in the repository.
#[derive(Debug, Clone)]
pub struct RepoEntry {
    /// The attack family this PoC belongs to.
    pub family: AttackFamily,
    /// The PoC's name (e.g. `"FR-IAIK"`). Shared, so a detection names
    /// its winner without allocating.
    pub name: Arc<str>,
    /// Its attack behavior model.
    pub model: CstBbs,
}

/// A repository of attack behavior models built from PoCs of known attacks.
#[derive(Debug, Clone, Default)]
pub struct ModelRepository {
    entries: Vec<RepoEntry>,
    /// FNV-1a of the repository's text form, once known (see
    /// [`crate::repo_fingerprint`]). Seeded by the loader with the bytes
    /// it parsed and by the saver with the bytes it wrote; every
    /// mutation clears it.
    fingerprint: OnceLock<u64>,
}

impl ModelRepository {
    /// An empty repository.
    pub fn new() -> ModelRepository {
        ModelRepository::default()
    }

    /// Add a prebuilt model.
    pub fn add_model(&mut self, family: AttackFamily, name: impl Into<String>, model: CstBbs) {
        self.fingerprint.take();
        self.entries.push(RepoEntry {
            family,
            name: name.into().into(),
            model,
        });
    }

    /// Model a PoC program and add the result.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from the modeling pipeline.
    pub fn add_poc(
        &mut self,
        family: AttackFamily,
        program: &Program,
        victim: &Victim,
        config: &ModelingConfig,
    ) -> Result<(), ModelError> {
        let outcome = build_model(program, victim, config)?;
        self.add_model(family, program.name(), outcome.cst_bbs);
        Ok(())
    }

    /// [`ModelRepository::add_poc`] through a [`ModelBuilder`], so
    /// repeated repository builds (eval rounds, warm disk caches) model
    /// each PoC exactly once.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from the modeling pipeline.
    pub fn add_poc_with(
        &mut self,
        family: AttackFamily,
        program: &Program,
        victim: &Victim,
        builder: &ModelBuilder,
    ) -> Result<(), ModelError> {
        let model = builder.build_cst(program, victim)?;
        self.add_model(family, program.name(), (*model).clone());
        Ok(())
    }

    /// The stored entries.
    pub fn entries(&self) -> &[RepoEntry] {
        &self.entries
    }

    /// Number of stored models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// See [`crate::repo_fingerprint`]: the cached value, or FNV-1a of
    /// the canonical text when none is known.
    pub(crate) fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| fnv1a(repository_to_string(self).as_bytes()))
    }

    /// Take `text` as the repository's text form for its fingerprint,
    /// unless one is already known.
    pub(crate) fn seed_fingerprint(&self, text: &str) {
        self.fingerprint.get_or_init(|| fnv1a(text.as_bytes()));
    }
}

impl Extend<RepoEntry> for ModelRepository {
    fn extend<I: IntoIterator<Item = RepoEntry>>(&mut self, iter: I) {
        self.fingerprint.take();
        self.entries.extend(iter);
    }
}

/// One repository entry's exact similarity to a classified target.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryScore {
    /// The entry's index in the repository.
    pub index: usize,
    /// The PoC's name (shared with the repository entry).
    pub poc: Arc<str>,
    /// The PoC's attack family.
    pub family: AttackFamily,
    /// The similarity score in `[0, 1]`, bitwise what the naive
    /// [`crate::similarity::similarity_score`] reports.
    pub score: f64,
}

impl EntryScore {
    /// Entry `index` of a repository, scored from its exact DTW distance.
    fn at(index: usize, entry: &RepoEntry, distance: f64) -> EntryScore {
        EntryScore {
            index,
            poc: entry.name.clone(),
            family: entry.family,
            score: score_of(distance),
        }
    }
}

/// The outcome of classifying one target program: the best-matching
/// entry and the threshold its score is judged against.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// The best-matching entry — minimum DTW distance, the later
    /// repository index on ties — or `None` for an empty repository.
    /// Its score is exact and bitwise identical to what a naive full scan
    /// would report.
    pub best: Option<EntryScore>,
    /// The detection threshold used.
    pub threshold: f64,
}

impl Detection {
    /// The best-scoring repository entry, if any.
    pub fn best_entry(&self) -> Option<&EntryScore> {
        self.best.as_ref()
    }

    /// Whether the target is classified as an attack (best score clears
    /// the threshold).
    pub fn is_attack(&self) -> bool {
        self.best_entry().is_some_and(|e| e.score >= self.threshold)
    }

    /// The predicted attack family, or `None` for benign.
    pub fn family(&self) -> Option<AttackFamily> {
        if self.is_attack() {
            self.best_entry().map(|e| e.family)
        } else {
            None
        }
    }

    /// The best similarity score (0.0 for an empty repository).
    pub fn best_score(&self) -> f64 {
        self.best_entry().map_or(0.0, |e| e.score)
    }

    /// Attach the verdict attributes (`verdict`, and the winner's
    /// `best_poc`, `best_family` and `best_score`) to a `detect` or
    /// `detect.scan` span.
    pub fn annotate(&self, sp: &mut sca_telemetry::SpanGuard) {
        if sp.is_recording() {
            sp.attr(
                "verdict",
                if self.is_attack() { "attack" } else { "benign" },
            );
            if let Some(best) = self.best_entry() {
                sp.attr("best_poc", &*best.poc);
                sp.attr("best_family", format!("{:?}", best.family));
                sp.attr("best_score", best.score);
            }
        }
    }
}

impl fmt::Display for Detection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.family() {
            Some(fam) => write!(f, "ATTACK {fam} (score {:.2}%)", self.best_score() * 100.0),
            None => write!(f, "benign (best score {:.2}%)", self.best_score() * 100.0),
        }
    }
}

/// How one [`Detector::scan`] runs. No field changes the detection a
/// scan returns, only the work it does or whether it finishes.
/// [`ScanRequest::default`] is unseeded, without a deadline, and serial.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanRequest {
    /// An entry index plus that entry's **exact** DTW distance to the
    /// target, known before the scan starts (a streaming session carries
    /// the previous increment's winner forward via
    /// [`crate::engine::PrefixDtw`]). It pre-sets the best-so-far cutoff.
    ///
    /// Every prune requires a lower bound strictly above the cutoff, and
    /// the cutoff never drops below the true best distance `d*` (the seed
    /// is an exact distance of one entry, so `seed.1 >= d*`). Hence every
    /// entry with distance `<= d*` still completes its DTW (a distance
    /// equal to the cutoff never abandons: the row minimum is a lower
    /// bound on the final distance), and the tie rule (minimum distance,
    /// later index) resolves over the same completed set. Seeding only
    /// skips comparisons that provably cannot win.
    pub seed: Option<(usize, f64)>,
    /// A wall-clock deadline, checked before every repository entry and
    /// once per DTW row, so a scan that runs out of time aborts within
    /// microseconds instead of finishing an arbitrarily large repository.
    pub deadline: Option<Instant>,
    /// Worker threads (std-only); 0 and 1 mean serial. Workers drain the
    /// shared visit order and share the best-so-far distance through an
    /// atomic, so pruning works across threads; the winner is merged under
    /// the serial scan's tie rule.
    pub jobs: usize,
}

/// The detection as one JSON object — the canonical machine-facing
/// rendering shared by `scaguard classify --json` and the `sca-serve`
/// wire protocol, so the two are byte-identical for the same detection.
pub fn detection_json(program: &str, detection: &Detection) -> Json {
    Json::Obj(vec![
        ("program".into(), Json::Str(program.to_string())),
        ("attack".into(), Json::Bool(detection.is_attack())),
        (
            "family".into(),
            match detection.family() {
                Some(f) => Json::Str(f.to_string()),
                None => Json::Null,
            },
        ),
        (
            "best_poc".into(),
            match detection.best_entry() {
                Some(entry) => Json::Str(entry.poc.to_string()),
                None => Json::Null,
            },
        ),
        ("best_score".into(), Json::Num(detection.best_score())),
        ("threshold".into(), Json::Num(detection.threshold)),
    ])
}

/// The prepared scan state a detector keeps behind a mutex: the engine
/// (intern pool + `D_IS` cache), the repository's prepared models, and
/// the bag bound over them (its repository side shared by every clone).
#[derive(Debug, Clone)]
struct ScanState {
    engine: SimilarityEngine,
    prepared: Vec<PreparedModel>,
    bags: BagBound,
}

impl ScanState {
    fn build(repo: &ModelRepository) -> ScanState {
        let mut engine = SimilarityEngine::new();
        let prepared: Vec<PreparedModel> = repo
            .entries()
            .iter()
            .map(|e| engine.prepare(&e.model))
            .collect();
        let bags = BagBound::new(&engine, &prepared);
        ScanState {
            engine,
            prepared,
            bags,
        }
    }
}

/// Pool-size limit after which a detector's persistent engine is rebuilt
/// from the repository, bounding memory on long-lived detectors that
/// classify an unbounded stream of targets.
const POOL_LIMIT: usize = 1 << 16;

/// A parallel-scan result slot: the entry's exact distance, when its
/// comparison ran to completion.
type EntrySlot = Mutex<Option<f64>>;

/// The SCAGuard detector: a model repository plus a similarity threshold,
/// optionally accelerated by a [`RepoIndex`] (see [`Detector::set_index`]).
#[derive(Debug)]
pub struct Detector {
    repo: ModelRepository,
    threshold: f64,
    index: Option<RepoIndex>,
    scan: Mutex<ScanState>,
}

impl Clone for Detector {
    fn clone(&self) -> Detector {
        Detector {
            repo: self.repo.clone(),
            threshold: self.threshold,
            index: self.index.clone(),
            scan: Mutex::new(self.lock_scan().clone()),
        }
    }
}

/// Map a DTW distance to the similarity score `1 / (D + 1)` — the same
/// expression [`crate::similarity::similarity_score`] uses.
fn score_of(distance: f64) -> f64 {
    1.0 / (distance + 1.0)
}

/// A detection threshold outside `[0, 1]` (or not a number at all).
///
/// Thresholds arrive from untrusted places — CLI flags, wire requests,
/// service configuration — so an invalid one must surface as an error
/// the caller can render, never as a panic inside the detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidThreshold(pub f64);

impl fmt::Display for InvalidThreshold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "threshold {} out of range (similarity thresholds must be within [0, 1])",
            self.0
        )
    }
}

impl std::error::Error for InvalidThreshold {}

impl Detector {
    /// The default similarity threshold.
    ///
    /// The paper uses 45%, the middle of *its* Fig.-5 plateau (30%–60%).
    /// On this reproduction's substrate the similarity scale is compressed
    /// (models are tens of blocks rather than thousands of x86 blocks),
    /// shifting the >90% plateau of the reproduced Fig. 5 to roughly
    /// 20%–30%. The default sits at that plateau's lower edge, which keeps
    /// recall on the far-variant tasks (E3/E4) where the compressed scale
    /// bites hardest, at a benign false-positive rate (1.25% at paper
    /// scale) below the 3.36% the paper reports; see EXPERIMENTS.md for
    /// the sweep.
    pub const DEFAULT_THRESHOLD: f64 = 0.20;

    /// Create a detector. The repository's models are interned into the
    /// similarity engine once, here.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidThreshold`] when `threshold` is outside `[0, 1]`
    /// (NaN included). Thresholds reach this constructor from CLI flags
    /// and wire requests, so a bad one is a rejected input, not a panic.
    pub fn new(repo: ModelRepository, threshold: f64) -> Result<Detector, InvalidThreshold> {
        if !(0.0..=1.0).contains(&threshold) {
            return Err(InvalidThreshold(threshold));
        }
        let scan = Mutex::new(ScanState::build(&repo));
        Ok(Detector {
            repo,
            threshold,
            index: None,
            scan,
        })
    }

    /// The repository backing this detector.
    pub fn repository(&self) -> &ModelRepository {
        &self.repo
    }

    /// The detection threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Attach a [`RepoIndex`] so repository scans visit entries
    /// cheapest-first and stop early on the sort-key envelope. Detections
    /// are byte-identical with and without an index; only the amount of
    /// work changes.
    ///
    /// # Errors
    ///
    /// Returns [`IndexMismatch`] when the index was not built from this
    /// detector's repository (stale sidecar, foreign file); the detector
    /// keeps its previous index in that case.
    pub fn set_index(&mut self, index: RepoIndex) -> Result<(), IndexMismatch> {
        if !index.matches(&self.repo) {
            return Err(IndexMismatch);
        }
        self.index = Some(index);
        Ok(())
    }

    /// The attached index, if any.
    pub fn index(&self) -> Option<&RepoIndex> {
        self.index.as_ref()
    }

    /// Build a fresh [`RepoIndex`] for this detector's repository (with
    /// default [`IndexConfig`]); always valid for [`Detector::set_index`].
    pub fn build_index(&self) -> RepoIndex {
        RepoIndex::build(&self.repo, &IndexConfig::default())
    }

    fn lock_scan(&self) -> std::sync::MutexGuard<'_, ScanState> {
        // The engine is pure bookkeeping; a panicked scan leaves it
        // consistent, so poisoning is safe to ignore.
        self.scan.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Run `f` on the locked scan state, then rebuild the state if the
    /// engine's intern pool outgrew [`POOL_LIMIT`].
    fn with_scan<T>(&self, f: impl FnOnce(&mut ScanState) -> T) -> T {
        let mut state = self.lock_scan();
        let out = f(&mut state);
        if state.engine.pool_len() > POOL_LIMIT {
            *state = ScanState::build(&self.repo);
        }
        out
    }

    /// Scan the repository for `target`'s best entry — the one scan
    /// behind every classification path. The detection (winner and exact
    /// score) is bitwise identical to a naive full scan whatever `req`
    /// says: a seed, a deadline and worker threads change only how much
    /// work the scan does, or whether it finishes. Use
    /// [`Detector::classify_model_full`] when every entry's score is
    /// wanted.
    ///
    /// # Errors
    ///
    /// Returns [`DeadlineExceeded`] when `req.deadline` passes mid-scan.
    pub fn scan(&self, target: &CstBbs, req: &ScanRequest) -> Result<Detection, DeadlineExceeded> {
        let mut sp = sca_telemetry::span("detect.scan");
        let best = self
            .with_scan(|state| scan_target(state, &self.repo, self.index.as_ref(), target, req));
        match best {
            Ok(best) => {
                let detection = self.detection(best);
                detection.annotate(&mut sp);
                Ok(detection)
            }
            Err(e) => {
                sp.attr("deadline_exceeded", true);
                Err(e)
            }
        }
    }

    /// Every entry's exact score against a prebuilt target model, in
    /// repository order, from an exhaustive scan (still served by the
    /// interned engine). Never consults the index — there is nothing to
    /// skip. The reference the pruned scans are tested against.
    pub fn classify_model_full(&self, target: &CstBbs) -> Vec<EntryScore> {
        let _sp = sca_telemetry::span("detect.scan");
        self.with_scan(|state| scan_full(state, &self.repo, target))
    }

    /// Classify a batch of prebuilt target models over a std-only worker
    /// pool (`jobs <= 1` degrades to serial [`Detector::scan`] calls). Each
    /// worker owns a clone of the prepared scan state, so the `D_IS` cache
    /// warms up across that worker's share of the batch with no lock
    /// contention. Results are in `targets` order and identical to serial
    /// [`Detector::scan`] calls.
    pub fn classify_batch(&self, targets: &[CstBbs], jobs: usize) -> Vec<Detection> {
        let jobs = jobs.clamp(1, targets.len().max(1));
        if jobs <= 1 {
            return targets
                .iter()
                .map(|t| {
                    self.scan(t, &ScanRequest::default())
                        .expect("no deadline was given")
                })
                .collect();
        }
        let seed = self.lock_scan().clone();
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Detection>>> =
            targets.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(|| {
                    let mut state = seed.clone();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= targets.len() {
                            break;
                        }
                        let best = scan_target(
                            &mut state,
                            &self.repo,
                            self.index.as_ref(),
                            &targets[i],
                            &ScanRequest::default(),
                        )
                        .expect("no deadline was given");
                        *slot_lock(&slots[i]) = Some(self.detection(best));
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("every target classified")
            })
            .collect()
    }

    fn detection(&self, best: Option<(usize, f64)>) -> Detection {
        Detection {
            best: best.map(|(i, d)| EntryScore::at(i, &self.repo.entries()[i], d)),
            threshold: self.threshold,
        }
    }

    /// Model `program` and classify it: [`build_model`], then
    /// [`Detector::scan`], inside one root `detect` span.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from the modeling pipeline.
    pub fn classify(
        &self,
        program: &Program,
        victim: &Victim,
        config: &ModelingConfig,
    ) -> Result<Detection, ModelError> {
        let mut sp = sca_telemetry::span("detect");
        sp.attr("program", program.name());
        sp.attr("threshold", self.threshold);
        let outcome = build_model(program, victim, config)?;
        let detection = self
            .scan(&outcome.cst_bbs, &ScanRequest::default())
            .expect("no deadline was given");
        detection.annotate(&mut sp);
        Ok(detection)
    }
}

fn slot_lock<T>(slot: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    slot.lock().unwrap_or_else(|e| e.into_inner())
}

/// Bridge an engine stats delta into the telemetry counters. A scan
/// flushes its engine's delta once, and each parallel worker its own, so
/// every skip is counted, the sort-key stop's included.
fn flush_engine_stats(delta: EngineStats) {
    if !sca_telemetry::enabled() {
        return;
    }
    sca_telemetry::counter("dtw.cells", delta.cells);
    sca_telemetry::counter("dtw.cells_pruned", delta.cells_pruned);
    sca_telemetry::counter("dtw.lb_skips", delta.lb_skips);
    sca_telemetry::counter("simcache.hits", delta.cache_hits);
    sca_telemetry::counter("simcache.misses", delta.cache_misses);
}

/// Per-scan work counters for the index/pruning machinery, bridged into
/// the `index.*` telemetry counters by [`flush_scan_counts`] once per
/// scan. Accumulated locally (plain integers); the disabled-telemetry
/// cost is the single relaxed atomic load inside `sca_telemetry::enabled`.
#[derive(Debug, Clone, Copy, Default)]
struct ScanCounts {
    /// Lower-bound evaluations: phase-0 envelopes and sort keys, and
    /// phase-1 bag bounds.
    lb_evals: u64,
    /// Phase-1 entries rejected without running any DTW — by the
    /// envelope, the bag bound or the index sort-key stop.
    entries_skipped: u64,
    /// DTW comparisons that ran to completion (an exact distance).
    /// Abandoned probes are partial by design and not counted here.
    full_dtw_runs: u64,
}

impl ScanCounts {
    fn absorb(&mut self, other: &ScanCounts) {
        self.lb_evals += other.lb_evals;
        self.entries_skipped += other.entries_skipped;
        self.full_dtw_runs += other.full_dtw_runs;
    }
}

/// Bridge one scan's pruning counters into the telemetry counters.
fn flush_scan_counts(counts: &ScanCounts) {
    if !sca_telemetry::enabled() {
        return;
    }
    sca_telemetry::counter("index.lb_evals", counts.lb_evals);
    sca_telemetry::counter("index.entries_skipped", counts.entries_skipped);
    sca_telemetry::counter("index.full_dtw_runs", counts.full_dtw_runs);
}

/// Phase 0 of a pruned scan: the prepared target, the per-entry
/// interval-envelope bounds, and (when an index is attached) the
/// phase-1 sort keys.
struct Phase0 {
    target: PreparedModel,
    /// Per-entry interval-envelope bound, checked first on every visit.
    env: Vec<f64>,
    /// Per-entry sort keys (`Some` only with an index): `max(env, pivot
    /// interval bound)`. Phase 1 visits entries in ascending `(key,
    /// index)` order — the serial scan through a lazy min-heap, worker
    /// pools through a precomputed sort; both produce the same sequence.
    /// Once a visited key exceeds the best-so-far distance, every
    /// unvisited entry's key does too, so the scan stops.
    keys: Option<Vec<f64>>,
}

/// Phase 0: prepare the target, start its bag-bound query, and price
/// every entry's envelope and sort key.
fn phase0(
    state: &mut ScanState,
    index: Option<&RepoIndex>,
    target: &CstBbs,
    counts: &mut ScanCounts,
) -> Phase0 {
    let prepared_target = state.engine.prepare(target);
    state.bags.begin(&state.engine, &prepared_target);
    let n = state.prepared.len();
    let env: Vec<f64> = state
        .prepared
        .iter()
        .map(|pm| lb_interval(&prepared_target, pm))
        .collect();
    counts.lb_evals += n as u64;
    let keys = index.map(|ix| {
        let q = ix.query(target);
        counts.lb_evals += n as u64;
        (0..n).map(|i| env[i].max(q.interval_bound(i))).collect()
    });
    Phase0 {
        target: prepared_target,
        env,
        keys,
    }
}

/// The visit order the sort keys dictate, materialized for a worker pool
/// to drain by shared atomic position: ascending `(key, index)`, i.e.
/// cheapest first, repository order on ties (and throughout when no index
/// is attached). The serial scan does not materialize this — it pops the
/// same sequence lazily from a min-heap ([`visit_serial`]).
fn sorted_order(keys: Option<&[f64]>, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if let Some(keys) = keys {
        order.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]).then(a.cmp(&b)));
    }
    order
}

/// Phase-1 probe of entry `i` under `cutoff`: its phase-0 envelope, then
/// the bag bound, then the early-abandoned DTW, each running only if the
/// previous one failed to disqualify the entry. Under an infinite cutoff
/// (no best yet) the bag bound cannot disqualify anything, so the entry
/// goes straight to DTW. Returns the exact distance when the DTW ran to
/// completion, `None` when the entry was skipped or abandoned.
///
/// # Errors
///
/// Returns [`DeadlineExceeded`] when `deadline` passes mid-comparison.
fn probe_entry(
    state: &mut ScanState,
    repo: &ModelRepository,
    p0: &Phase0,
    i: usize,
    cutoff: f64,
    deadline: Option<Instant>,
    counts: &mut ScanCounts,
) -> Result<Option<f64>, DeadlineExceeded> {
    let ScanState {
        engine,
        prepared,
        bags,
    } = state;
    let (target, entry_model) = (&p0.target, &prepared[i]);
    let mut sp = sca_telemetry::span("pipeline.compare.dtw");
    let before = engine.stats();
    let bound = if p0.env[i] > cutoff || !cutoff.is_finite() {
        p0.env[i]
    } else {
        counts.lb_evals += 1;
        bags.bound(i)
    };
    let outcome = if bound > cutoff {
        counts.entries_skipped += 1;
        engine.note_lb_skip(target, entry_model);
        Bounded::AtLeast(bound)
    } else {
        let r = engine.distance_bounded_until(target, entry_model, cutoff, deadline)?;
        if matches!(r, Bounded::Exact(_)) {
            counts.full_dtw_runs += 1;
        }
        r
    };
    let distance = outcome.exact();
    if sp.is_recording() {
        let delta = engine.stats().since(&before);
        let entry = &repo.entries()[i];
        sp.attr("poc", &*entry.name);
        sp.attr("family", format!("{:?}", entry.family));
        sp.attr("cells", delta.cells);
        sp.attr("cells_pruned", delta.cells_pruned);
        sp.attr("score", score_of(outcome.lower_bound()));
        sp.attr("exact", distance.is_some());
        sca_telemetry::counter("dtw.comparisons", 1);
    }
    Ok(distance)
}

/// The scan behind [`Detector::scan`] and [`Detector::classify_batch`]:
/// phase 0 (envelopes and visit order), then phase 1 (find the best entry
/// under the best-so-far cutoff, stopping at the first too-expensive sort
/// key when indexed), serially or over `req.jobs` workers. Returns the
/// winner's index and exact distance — minimum distance, later index on
/// ties — or `None` for an empty repository. Flushes the `index.*`
/// counters and the engine's work once, whether or not the scan finishes.
///
/// # Errors
///
/// Returns [`DeadlineExceeded`] when `req.deadline` passes mid-scan.
fn scan_target(
    state: &mut ScanState,
    repo: &ModelRepository,
    index: Option<&RepoIndex>,
    target: &CstBbs,
    req: &ScanRequest,
) -> Result<Option<(usize, f64)>, DeadlineExceeded> {
    let before = state.engine.stats();
    let mut counts = ScanCounts::default();
    let p0 = phase0(state, index, target, &mut counts);
    debug_assert!(req.seed.is_none_or(|(i, _)| i < repo.len()));
    let jobs = req.jobs.min(repo.len());
    let best = if jobs > 1 {
        visit_parallel(state, repo, &p0, req, jobs, &mut counts)
    } else {
        visit_serial(state, repo, &p0, req, &mut counts)
    };
    flush_engine_stats(state.engine.stats().since(&before));
    flush_scan_counts(&counts);
    best
}

/// Fold an entry's exact distance into the winner: minimum distance, later
/// entry on ties — the same rule as the naive `max_by` over all scores,
/// stated in a form that is independent of the visit order.
fn keep_best(best: &mut Option<(usize, f64)>, i: usize, d: f64) {
    if best.is_none_or(|(bi, bd)| d < bd || (d == bd && i > bi)) {
        *best = Some((i, d));
    }
}

/// Serial phase 1: visit entries in ascending `(key, index)` order under
/// the best-so-far cutoff (pre-set by `req.seed`), checking the deadline
/// before every entry.
fn visit_serial(
    state: &mut ScanState,
    repo: &ModelRepository,
    p0: &Phase0,
    req: &ScanRequest,
    counts: &mut ScanCounts,
) -> Result<Option<(usize, f64)>, DeadlineExceeded> {
    let mut best = req.seed;
    // Lazy visit order: a min-heap over `(key bits, index)` pops entries
    // in exactly the ascending `(key, index)` sequence a full sort would
    // produce (keys are non-negative finite floats, whose bit patterns
    // order like their values), but costs `O(n)` to build plus `O(log n)`
    // per visited entry — and the indexed scan visits only a short prefix
    // before the sort-key stop.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = match &p0.keys {
        Some(keys) => keys
            .iter()
            .enumerate()
            .map(|(i, k)| Reverse((k.to_bits(), i)))
            .collect(),
        None => BinaryHeap::new(),
    };
    let mut linear = 0..repo.len();
    loop {
        // Without an index there are no keys: visit in repository order
        // with a key that can never trip the stop below.
        let next = if p0.keys.is_some() {
            heap.pop().map(|Reverse((k, i))| (i, f64::from_bits(k)))
        } else {
            linear.next().map(|i| (i, f64::NEG_INFINITY))
        };
        let Some((i, key)) = next else { break };
        if req.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(DeadlineExceeded);
        }
        let cutoff = best.map_or(f64::INFINITY, |(_, d)| d);
        if key > cutoff {
            // Keys ascend along the visit order: this entry and every
            // entry still in the heap are rejected by their sort key
            // alone.
            counts.entries_skipped += (heap.len() + 1) as u64;
            state.engine.note_lb_skip(&p0.target, &state.prepared[i]);
            for &Reverse((_, j)) in heap.iter() {
                state.engine.note_lb_skip(&p0.target, &state.prepared[j]);
            }
            break;
        }
        if let Some(d) = probe_entry(state, repo, p0, i, cutoff, req.deadline, counts)? {
            keep_best(&mut best, i, d);
        }
    }
    Ok(best)
}

/// Parallel phase 1 over `jobs` workers, each on its own clone of `state`
/// (phase 0 already interned the target and started its bag-bound query,
/// so both are valid in every clone). Workers drain the materialized visit
/// order by a shared atomic position and share the best-so-far distance,
/// seeded like the serial scan's, through an atomic. The winner is merged
/// from the completed distances under the serial scan's tie rule, so the
/// result is the serial scan's, independent of which worker got where
/// first. Each worker flushes its own engine's work.
fn visit_parallel(
    state: &ScanState,
    repo: &ModelRepository,
    p0: &Phase0,
    req: &ScanRequest,
    jobs: usize,
    counts: &mut ScanCounts,
) -> Result<Option<(usize, f64)>, DeadlineExceeded> {
    let n = repo.len();
    let order = sorted_order(p0.keys.as_deref(), n);
    let next = AtomicUsize::new(0);
    // Best distance so far, as bits: for non-negative IEEE floats the
    // bit pattern orders exactly like the value, so `fetch_min` on
    // bits is `fetch_min` on distances.
    let best_bits = AtomicU64::new(req.seed.map_or(f64::INFINITY, |(_, d)| d).to_bits());
    // Raised by the first worker to see the deadline pass; the others
    // stop before their next entry.
    let expired = AtomicBool::new(false);
    let slots: Vec<EntrySlot> = (0..n).map(|_| Mutex::new(None)).collect();
    let shared_counts: Mutex<ScanCounts> = Mutex::new(ScanCounts::default());
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| {
                let mut state = state.clone();
                let start = state.engine.stats();
                let mut local = ScanCounts::default();
                while !expired.load(Ordering::Relaxed) {
                    let pos = next.fetch_add(1, Ordering::Relaxed);
                    if pos >= n {
                        break;
                    }
                    if req.deadline.is_some_and(|d| Instant::now() >= d) {
                        expired.store(true, Ordering::Relaxed);
                        break;
                    }
                    let i = order[pos];
                    let cutoff = f64::from_bits(best_bits.load(Ordering::Relaxed));
                    if let Some(keys) = &p0.keys {
                        // The shared best only ever decreases, so a key
                        // above the cutoff now stays above it forever:
                        // skipping here is admissible even though other
                        // workers are still lowering the best.
                        if keys[i] > cutoff {
                            local.entries_skipped += 1;
                            state.engine.note_lb_skip(&p0.target, &state.prepared[i]);
                            continue;
                        }
                    }
                    match probe_entry(&mut state, repo, p0, i, cutoff, req.deadline, &mut local) {
                        Ok(Some(d)) => {
                            best_bits.fetch_min(d.to_bits(), Ordering::Relaxed);
                            *slot_lock(&slots[i]) = Some(d);
                        }
                        Ok(None) => {}
                        Err(DeadlineExceeded) => {
                            expired.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                flush_engine_stats(state.engine.stats().since(&start));
                slot_lock(&shared_counts).absorb(&local);
            });
        }
    });
    counts.absorb(&slot_lock(&shared_counts));
    if expired.into_inner() {
        return Err(DeadlineExceeded);
    }
    let mut best = req.seed;
    for (i, slot) in slots.into_iter().enumerate() {
        if let Some(d) = slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
            keep_best(&mut best, i, d);
        }
    }
    Ok(best)
}

/// Exhaustive scan: every entry's DTW runs to completion, so every score
/// is exact. No bounds, no index.
fn scan_full(state: &mut ScanState, repo: &ModelRepository, target: &CstBbs) -> Vec<EntryScore> {
    let ScanState {
        engine, prepared, ..
    } = state;
    let before = engine.stats();
    let target = engine.prepare(target);
    let scores = repo
        .entries()
        .iter()
        .zip(prepared.iter())
        .enumerate()
        .map(|(i, (entry, model))| EntryScore::at(i, entry, engine.distance(&target, model)))
        .collect();
    flush_engine_stats(engine.stats().since(&before));
    flush_scan_counts(&ScanCounts {
        full_dtw_runs: repo.len() as u64,
        ..ScanCounts::default()
    });
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cst::{Cst, CstStep};
    use crate::similarity::similarity_score;

    fn dummy_model(n: usize, marker: u64) -> CstBbs {
        (0..n)
            .map(|i| CstStep {
                bb_addr: marker + i as u64,
                norm_insts: vec![sca_isa::NormInst::nullary(if marker == 0 {
                    "nop"
                } else {
                    "halt"
                })],
                cst: Cst::identity(),
                first_seen: i as u64,
            })
            .collect()
    }

    fn scan(d: &Detector, target: &CstBbs) -> Detection {
        d.scan(target, &ScanRequest::default())
            .expect("no deadline was given")
    }

    fn repo4() -> ModelRepository {
        let mut repo = ModelRepository::new();
        repo.add_model(AttackFamily::FlushReload, "fr", dummy_model(4, 0));
        repo.add_model(AttackFamily::PrimeProbe, "pp", dummy_model(10, 1));
        repo.add_model(AttackFamily::SpectreFlushReload, "sfr", dummy_model(7, 0));
        repo.add_model(AttackFamily::SpectrePrimeProbe, "spp", dummy_model(2, 1));
        repo
    }

    #[test]
    fn empty_repo_classifies_benign() {
        let d = Detector::new(ModelRepository::new(), 0.45).unwrap();
        let det = scan(&d, &dummy_model(3, 0));
        assert!(!det.is_attack());
        assert_eq!(det.family(), None);
        assert_eq!(det.best_score(), 0.0);
    }

    #[test]
    fn identical_model_scores_one() {
        let mut repo = ModelRepository::new();
        repo.add_model(AttackFamily::FlushReload, "m", dummy_model(4, 0));
        let d = Detector::new(repo, 0.45).unwrap();
        let det = scan(&d, &dummy_model(4, 0));
        assert!(det.is_attack());
        assert_eq!(det.family(), Some(AttackFamily::FlushReload));
        assert_eq!(det.best_score(), 1.0);
    }

    #[test]
    fn dissimilar_model_is_benign() {
        let mut repo = ModelRepository::new();
        repo.add_model(AttackFamily::PrimeProbe, "m", dummy_model(20, 0));
        let d = Detector::new(repo, 0.45).unwrap();
        let det = scan(&d, &dummy_model(3, 1));
        assert!(!det.is_attack(), "score {}", det.best_score());
    }

    #[test]
    fn best_entry_wins_classification() {
        let mut repo = ModelRepository::new();
        repo.add_model(AttackFamily::PrimeProbe, "pp", dummy_model(10, 1));
        repo.add_model(AttackFamily::FlushReload, "fr", dummy_model(4, 0));
        let d = Detector::new(repo, 0.1).unwrap();
        let det = scan(&d, &dummy_model(4, 0));
        assert_eq!(det.family(), Some(AttackFamily::FlushReload));
        assert_eq!(det.best_entry().map(|e| e.index), Some(1));
        assert_eq!(det.best_entry().map(|e| &*e.poc), Some("fr"));
    }

    #[test]
    fn pruned_scan_matches_naive_best() {
        let repo = repo4();
        let d = Detector::new(repo.clone(), 0.2).unwrap();
        let target = dummy_model(5, 0);
        let naive_best = repo
            .entries()
            .iter()
            .map(|e| similarity_score(&target, &e.model))
            .fold(f64::NEG_INFINITY, f64::max);
        let det = scan(&d, &target);
        assert_eq!(det.best_score(), naive_best);
        let best = det.best_entry().unwrap();
        assert_eq!(
            best.score,
            similarity_score(&target, &repo.entries()[best.index].model)
        );
    }

    #[test]
    fn seeded_scan_matches_unseeded_bitwise() {
        let mut d = Detector::new(repo4(), 0.2).unwrap();
        for indexed in [false, true] {
            if indexed {
                d.set_index(d.build_index()).unwrap();
            }
            for (t, marker) in [(1usize, 0u64), (4, 0), (5, 1), (10, 1)] {
                let target = dummy_model(t, marker);
                let want = scan(&d, &target);
                // Seed with the true winner's exact distance (the case a
                // streaming session produces), and with every other
                // entry's exact distance (a stale tracked entry after the
                // winner changed), serially and over workers: all must
                // reproduce the unseeded result bit for bit.
                for i in 0..d.repository().len() {
                    let exact = crate::similarity::model_distance(
                        &target,
                        &d.repository().entries()[i].model,
                    );
                    for jobs in [1, 3] {
                        let req = ScanRequest {
                            seed: Some((i, exact)),
                            jobs,
                            ..ScanRequest::default()
                        };
                        let got = d.scan(&target, &req).unwrap();
                        let (w, g) = (want.best_entry().unwrap(), got.best_entry().unwrap());
                        let at =
                            format!("indexed={indexed} t={t} marker={marker} seed={i} jobs={jobs}");
                        assert_eq!(w.index, g.index, "{at}");
                        assert_eq!(w.score.to_bits(), g.score.to_bits(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn full_scan_is_exact_everywhere() {
        let repo = repo4();
        let d = Detector::new(repo.clone(), 0.2).unwrap();
        let target = dummy_model(5, 1);
        let scores = d.classify_model_full(&target);
        assert_eq!(scores.len(), repo.len());
        for (i, (e, repo_entry)) in scores.iter().zip(repo.entries()).enumerate() {
            assert_eq!(e.index, i);
            assert_eq!(e.poc, repo_entry.name);
            assert_eq!(e.score, similarity_score(&target, &repo_entry.model));
        }
    }

    #[test]
    fn jobs_scan_matches_serial() {
        let d = Detector::new(repo4(), 0.2).unwrap();
        for n in [0, 1, 3, 5, 12] {
            for marker in [0, 1] {
                let target = dummy_model(n, marker);
                let serial = scan(&d, &target);
                let req = ScanRequest {
                    jobs: 3,
                    ..ScanRequest::default()
                };
                let parallel = d.scan(&target, &req).unwrap();
                assert_eq!(serial, parallel);
            }
        }
    }

    #[test]
    fn indexed_scan_is_byte_identical_to_linear() {
        let repo = repo4();
        let linear = Detector::new(repo.clone(), 0.2).unwrap();
        let mut indexed = Detector::new(repo, 0.2).unwrap();
        indexed.set_index(indexed.build_index()).unwrap();
        assert!(indexed.index().is_some());
        for n in [0, 1, 3, 5, 12] {
            for marker in [0, 1] {
                let target = dummy_model(n, marker);
                let a = detection_json("t", &scan(&linear, &target)).to_string();
                let b = detection_json("t", &scan(&indexed, &target)).to_string();
                assert_eq!(a, b, "indexed scan diverged (n={n}, marker={marker})");
                for jobs in [2, 3] {
                    let req = ScanRequest {
                        jobs,
                        ..ScanRequest::default()
                    };
                    let j = detection_json("t", &indexed.scan(&target, &req).unwrap()).to_string();
                    assert_eq!(
                        a, j,
                        "indexed jobs={jobs} diverged (n={n}, marker={marker})"
                    );
                }
            }
        }
    }

    #[test]
    fn stale_index_is_rejected() {
        let mut small = ModelRepository::new();
        small.add_model(AttackFamily::FlushReload, "fr", dummy_model(4, 0));
        let other = Detector::new(small, 0.2).unwrap();
        let mut d = Detector::new(repo4(), 0.2).unwrap();
        assert_eq!(d.set_index(other.build_index()), Err(IndexMismatch));
        assert!(d.index().is_none(), "a rejected index must not stick");
        assert!(d.set_index(d.build_index()).is_ok());
    }

    #[test]
    fn batch_matches_serial() {
        let d = Detector::new(repo4(), 0.2).unwrap();
        let targets: Vec<CstBbs> = (0..7)
            .map(|i| dummy_model(i % 5 + 1, i as u64 % 2))
            .collect();
        let serial: Vec<Detection> = targets.iter().map(|t| scan(&d, t)).collect();
        assert_eq!(serial, d.classify_batch(&targets, 4));
    }

    #[test]
    fn bad_threshold_is_rejected_not_a_panic() {
        for t in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let err = Detector::new(ModelRepository::new(), t)
                .err()
                .unwrap_or_else(|| panic!("threshold {t} must be rejected"));
            assert!(err.to_string().contains("out of range"), "{err}");
        }
        assert!(Detector::new(ModelRepository::new(), 0.0).is_ok());
        assert!(Detector::new(ModelRepository::new(), 1.0).is_ok());
    }

    #[test]
    fn deadline_scan_matches_serial_or_aborts() {
        let d = Detector::new(repo4(), 0.2).unwrap();
        let target = dummy_model(5, 0);
        let serial = scan(&d, &target);
        for jobs in [1, 3] {
            // A generous deadline yields the exact same detection.
            let far = ScanRequest {
                deadline: Some(Instant::now() + std::time::Duration::from_secs(3600)),
                jobs,
                ..ScanRequest::default()
            };
            assert_eq!(d.scan(&target, &far), Ok(serial.clone()), "jobs={jobs}");
            // An already-passed deadline aborts before any entry.
            let past = ScanRequest {
                deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
                jobs,
                ..ScanRequest::default()
            };
            assert_eq!(d.scan(&target, &past), Err(DeadlineExceeded), "jobs={jobs}");
        }
        // The detector still works after an aborted scan.
        assert_eq!(serial, scan(&d, &target));
    }

    #[test]
    fn detection_json_is_stable_and_complete() {
        let d = Detector::new(repo4(), 0.2).unwrap();
        let det = scan(&d, &dummy_model(4, 0));
        let json = detection_json("target", &det);
        let text = json.to_string();
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(parsed, json, "rendering round-trips");
        assert_eq!(parsed.get("program").and_then(Json::as_str), Some("target"));
        assert!(parsed.get("attack").is_some());
        assert!(parsed.get("threshold").and_then(Json::as_f64).is_some());
        // Compact: the verdict and the winner, no per-entry list.
        let Json::Obj(fields) = &parsed else {
            panic!("a detection is an object: {parsed}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "program",
                "attack",
                "family",
                "best_poc",
                "best_score",
                "threshold"
            ]
        );
    }
}

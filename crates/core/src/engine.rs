//! The fast similarity engine: exact CST-BBS distances at a fraction of
//! the naive cost.
//!
//! [`crate::similarity::model_distance`] recomputes a full Levenshtein
//! (`O(p·q)`) inside *every* DTW cell, so one comparison costs
//! `O(n·m·p·q)` and a repo scan multiplies that by the repository size.
//! This module keeps the result **bitwise identical** while doing far
//! less work:
//!
//! * **Interning** ([`SimilarityEngine::prepare`]): each step's
//!   normalized instruction sequence is interned into a pool shared by
//!   every model the engine has seen, so the expensive `D_IS` Levenshtein
//!   is computed once per *distinct* sequence pair and looked up
//!   thereafter. Basic blocks repeat heavily inside loops and across
//!   mutated variants of the same PoC, so distinct pairs ≪ DTW cells.
//! * **Early abandoning** ([`SimilarityEngine::distance_bounded`]):
//!   accumulated DTW row minima are monotonically non-decreasing, so as
//!   soon as every cell of the active row exceeds a caller-supplied
//!   cutoff (the best distance seen so far in a repo scan) the
//!   comparison is abandoned — the remaining cells can only make it
//!   worse.
//! * **Lower bounds** ([`lb_interval`], [`BagBound`]): provably
//!   admissible lower bounds on the true distance let a repo scan skip
//!   an entry without touching a single Levenshtein. [`lb_interval`]
//!   prices both models' step lengths and change magnitudes against the
//!   other's value range in `O(log n)`; [`BagBound`] compares the
//!   multisets of normalized instructions in each step, with per-step
//!   minima memoized per query over the repository's distinct steps.
//!
//! Exactness is load-bearing: the detector's scores must match the naive
//! reference (`dtw(a, b, cst_distance)`) *bitwise*, which the engine
//! guarantees by performing the identical floating-point operations in
//! the identical order for every cell it does compute, and by only ever
//! skipping work whose result provably cannot affect the outcome. The
//! property tests in `tests/properties.rs` and the PoC cross-matrix test
//! in `tests/engine_exactness.rs` assert this.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use sca_isa::NormInst;

use crate::cst::CstBbs;
use crate::similarity::levenshtein;

/// Work counters the engine accumulates across comparisons.
///
/// Monotonic; read them with [`SimilarityEngine::stats`] and diff across
/// calls to attribute work to one scan. The detector bridges these into
/// the `sca-telemetry` counters `dtw.cells`, `dtw.cells_pruned`,
/// `dtw.lb_skips`, `simcache.hits`, and `simcache.misses`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// DTW cells actually computed (per-step distance evaluated).
    pub cells: u64,
    /// DTW cells skipped by early abandoning (the rest of an abandoned
    /// comparison) or by a lower-bound skip (the whole comparison).
    pub cells_pruned: u64,
    /// Comparisons skipped outright by a cheap lower bound.
    pub lb_skips: u64,
    /// `D_IS` lookups served from the interned-pair cache (including the
    /// identical-sequence fast path).
    pub cache_hits: u64,
    /// `D_IS` values computed (one full Levenshtein each) and cached.
    pub cache_misses: u64,
}

impl EngineStats {
    /// `self - earlier`, counter-wise — the work done since `earlier`.
    pub fn since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            cells: self.cells - earlier.cells,
            cells_pruned: self.cells_pruned - earlier.cells_pruned,
            lb_skips: self.lb_skips - earlier.lb_skips,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
        }
    }
}

/// A CST-BBS readied for fast comparison: interned sequence ids plus the
/// per-step values and sorted aggregates [`lb_interval`] needs.
///
/// Prepared models are only meaningful with the engine that produced
/// them (ids index that engine's pool).
#[derive(Debug, Clone)]
pub struct PreparedModel {
    /// Interned id of each step's normalized instruction sequence.
    ids: Vec<u32>,
    /// Each step's cache-change magnitude `P` (precomputed once).
    changes: Vec<f64>,
    /// Each step's instruction-sequence length, sorted.
    sorted_lens: Vec<u32>,
    /// `changes`, sorted.
    sorted_changes: Vec<f64>,
    /// Prefix sums of `sorted_lens` (as `f64`); `prefix_len[i]` is the
    /// sum of the `i` smallest lengths. Used by [`lb_interval`] to price
    /// a whole scan side against a value interval in `O(log n)`.
    prefix_len: Vec<f64>,
    /// Prefix sums of `1/len` over `sorted_lens` (`0.0` for empty
    /// blocks, which never enter the out-of-interval terms).
    prefix_inv_len: Vec<f64>,
    /// Prefix sums of `sorted_changes`.
    prefix_change: Vec<f64>,
    /// Value-indexed cumulative counts over `sorted_lens`
    /// (`len_cnt_le[v]` = how many steps have length `<= v`), so the
    /// per-entry envelope pass prices length sides with two array loads
    /// instead of two binary searches. Empty when the model has no steps
    /// or a step is implausibly long; the searches remain as fallback
    /// and produce identical indices.
    len_cnt_le: Vec<u32>,
}

/// Step lengths at or above this skip the count table (a table that
/// large would cost more than the searches it replaces).
const LEN_LUT_CAP: usize = 4096;

/// The value-indexed cumulative count table over a sorted length list,
/// or empty when the largest value is too big to table.
fn cumulative_len_counts(sorted: &[u32]) -> Vec<u32> {
    let Some(&max) = sorted.last() else {
        return Vec::new();
    };
    if max as usize >= LEN_LUT_CAP {
        return Vec::new();
    }
    let mut cnt = vec![0u32; max as usize + 1];
    for &v in sorted {
        cnt[v as usize] += 1;
    }
    let mut run = 0u32;
    for c in &mut cnt {
        run += *c;
        *c = run;
    }
    cnt
}

impl PreparedModel {
    /// Number of steps in the underlying model.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Number of steps with sequence length `<= v` — identical to
    /// `sorted_lens.partition_point(|&q| q <= v)`, as one array load
    /// when the count table covers the model.
    #[inline]
    fn lens_at_most(&self, v: u32) -> usize {
        match self.len_cnt_le.len() {
            0 => self.sorted_lens.partition_point(|&q| q <= v),
            cap => self.len_cnt_le[(v as usize).min(cap - 1)] as usize,
        }
    }

    /// Number of steps with sequence length `< v` — identical to
    /// `sorted_lens.partition_point(|&q| q < v)`.
    #[inline]
    fn lens_below(&self, v: u32) -> usize {
        match v {
            0 => 0,
            v => self.lens_at_most(v - 1),
        }
    }

    /// Whether the underlying model has no steps.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// A deadline-aware comparison ran out of time before completing.
///
/// Raised by [`SimilarityEngine::distance_bounded_until`] (and the
/// detector's deadline-propagating scans built on it) when the supplied
/// deadline passes mid-comparison. The engine's caches and counters stay
/// consistent; only the in-flight comparison is abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceeded;

impl fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "similarity scan deadline exceeded")
    }
}

impl Error for DeadlineExceeded {}

/// The outcome of a cutoff-bounded comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bounded {
    /// The comparison ran to completion; this is the exact distance,
    /// bitwise identical to the naive reference.
    Exact(f64),
    /// The comparison was abandoned: the true distance is **at least**
    /// this value, which exceeds the cutoff.
    AtLeast(f64),
}

impl Bounded {
    /// The exact distance, if the comparison completed.
    pub fn exact(self) -> Option<f64> {
        match self {
            Bounded::Exact(d) => Some(d),
            Bounded::AtLeast(_) => None,
        }
    }

    /// The distance if exact, else the lower bound — always a valid
    /// lower bound on the true distance.
    pub fn lower_bound(self) -> f64 {
        match self {
            Bounded::Exact(d) | Bounded::AtLeast(d) => d,
        }
    }
}

/// The reusable similarity engine: an instruction-sequence intern pool,
/// a `D_IS` cache keyed by distinct sequence pairs, and work counters.
///
/// One engine serves any number of comparisons; the pool and cache
/// persist across them, which is where the big wins come from when many
/// targets are scanned against the same repository (mutated variants
/// share most of their blocks). Memory grows with the number of
/// *distinct* sequences and pairs actually compared — both tiny for
/// CST-BBS workloads (blocks are short and heavily shared).
///
/// ```
/// use scaguard::{dtw, cst_distance, CstBbs, SimilarityEngine};
/// let mut engine = SimilarityEngine::new();
/// let (a, b) = (CstBbs::default(), CstBbs::default());
/// let (pa, pb) = (engine.prepare(&a), engine.prepare(&b));
/// assert_eq!(engine.distance(&pa, &pb), dtw(a.steps(), b.steps(), cst_distance));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimilarityEngine {
    /// Sequence -> interned id.
    ids: HashMap<Vec<NormInst>, u32>,
    /// Interned id -> sequence.
    seqs: Vec<Vec<NormInst>>,
    /// Dense `D_IS` cache for id pairs below [`DENSE_CAP`] (the common
    /// case — pools stay tiny), `NaN` = not yet computed. A square
    /// matrix of dimension `dense_n`, grown geometrically with the pool
    /// so small engines stay cheap. One array load per DTW cell instead
    /// of a hash lookup.
    dense: Vec<f64>,
    /// Current dimension of `dense` (`dense.len() == dense_n²`).
    dense_n: usize,
    /// `D_IS` spill for unordered pairs with an id at or above
    /// [`DENSE_CAP`].
    dis: HashMap<(u32, u32), f64>,
    stats: EngineStats,
}

/// Ids below this use the dense `D_IS` matrix (at most `DENSE_CAP² × 8`
/// bytes = 8 MiB once that many sequences are interned); rarer ids spill
/// to the hash map.
const DENSE_CAP: usize = 1024;

impl SimilarityEngine {
    /// An empty engine.
    pub fn new() -> SimilarityEngine {
        SimilarityEngine::default()
    }

    /// The cumulative work counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Number of distinct instruction sequences interned so far.
    pub fn pool_len(&self) -> usize {
        self.seqs.len()
    }

    fn intern(&mut self, seq: &[NormInst]) -> u32 {
        if let Some(&id) = self.ids.get(seq) {
            return id;
        }
        let id = u32::try_from(self.seqs.len()).expect("intern pool overflow");
        self.ids.insert(seq.to_vec(), id);
        self.seqs.push(seq.to_vec());
        id
    }

    /// Intern a model's sequences and precompute what comparisons need.
    pub fn prepare(&mut self, model: &CstBbs) -> PreparedModel {
        let steps = model.steps();
        let ids: Vec<u32> = steps.iter().map(|s| self.intern(&s.norm_insts)).collect();
        let changes: Vec<f64> = steps.iter().map(|s| s.cst.change()).collect();
        let mut sorted_lens: Vec<u32> = steps
            .iter()
            .map(|s| u32::try_from(s.norm_insts.len()).expect("block too long"))
            .collect();
        sorted_lens.sort_unstable();
        let mut sorted_changes = changes.clone();
        sorted_changes.sort_unstable_by(f64::total_cmp);
        let mut prefix_len = Vec::with_capacity(sorted_lens.len() + 1);
        let mut prefix_inv_len = Vec::with_capacity(sorted_lens.len() + 1);
        let (mut sum, mut inv_sum) = (0.0f64, 0.0f64);
        prefix_len.push(0.0);
        prefix_inv_len.push(0.0);
        for &l in &sorted_lens {
            sum += f64::from(l);
            inv_sum += if l == 0 { 0.0 } else { 1.0 / f64::from(l) };
            prefix_len.push(sum);
            prefix_inv_len.push(inv_sum);
        }
        let mut prefix_change = Vec::with_capacity(sorted_changes.len() + 1);
        let mut csum = 0.0f64;
        prefix_change.push(0.0);
        for &c in &sorted_changes {
            csum += c;
            prefix_change.push(csum);
        }
        let len_cnt_le = cumulative_len_counts(&sorted_lens);
        PreparedModel {
            ids,
            changes,
            sorted_lens,
            sorted_changes,
            prefix_len,
            prefix_inv_len,
            prefix_change,
            len_cnt_le,
        }
    }

    /// `D_IS` between two interned sequences: computed once per distinct
    /// pair, served from the cache thereafter. Identical sequences share
    /// an id and short-circuit to 0 without touching the cache.
    #[inline]
    fn instruction_distance(&mut self, ia: u32, ib: u32) -> f64 {
        if ia == ib {
            self.stats.cache_hits += 1;
            return 0.0;
        }
        let (la, lb) = (ia as usize, ib as usize);
        if la < DENSE_CAP && lb < DENSE_CAP {
            let need = la.max(lb) + 1;
            if need > self.dense_n {
                self.grow_dense(need);
            }
            let n = self.dense_n;
            let d = self.dense[la * n + lb];
            if !d.is_nan() {
                self.stats.cache_hits += 1;
                return d;
            }
            let d = self.compute_dis(ia, ib);
            self.dense[la * n + lb] = d;
            self.dense[lb * n + la] = d;
            return d;
        }
        let key = (ia.min(ib), ia.max(ib));
        if let Some(&d) = self.dis.get(&key) {
            self.stats.cache_hits += 1;
            return d;
        }
        let d = self.compute_dis(ia, ib);
        self.dis.insert(key, d);
        d
    }

    /// Grow the dense matrix to at least `need × need`, remapping the
    /// already-cached entries to the new row stride. Geometric growth
    /// keeps the amortized cost per interned sequence constant.
    fn grow_dense(&mut self, need: usize) {
        let new_n = need.next_power_of_two().clamp(64, DENSE_CAP);
        let mut grown = vec![f64::NAN; new_n * new_n];
        for r in 0..self.dense_n {
            let old_row = &self.dense[r * self.dense_n..(r + 1) * self.dense_n];
            grown[r * new_n..r * new_n + self.dense_n].copy_from_slice(old_row);
        }
        self.dense = grown;
        self.dense_n = new_n;
    }

    /// One full Levenshtein — the cache-miss path.
    fn compute_dis(&mut self, ia: u32, ib: u32) -> f64 {
        self.stats.cache_misses += 1;
        let (a, b) = (&self.seqs[ia as usize], &self.seqs[ib as usize]);
        let denom = a.len().max(b.len());
        // denom > 0: two empty sequences intern to the same id.
        levenshtein(a, b) as f64 / denom as f64
    }

    /// The exact DTW distance between two prepared models — bitwise
    /// identical to `dtw(a.steps(), b.steps(), cst_distance)`.
    pub fn distance(&mut self, a: &PreparedModel, b: &PreparedModel) -> f64 {
        match self.distance_bounded(a, b, f64::INFINITY) {
            Bounded::Exact(d) => d,
            Bounded::AtLeast(_) => unreachable!("nothing exceeds an infinite cutoff"),
        }
    }

    /// DTW with early abandoning: returns the exact distance, or
    /// [`Bounded::AtLeast`] as soon as every cell of the active row
    /// exceeds `cutoff`.
    ///
    /// Sound because accumulated row minima never decrease: every cell of
    /// row `i` is some cell of row `i-1` (or an earlier cell of row `i`)
    /// plus a non-negative per-step cost, and IEEE addition of
    /// non-negative values is monotone — so once a whole row exceeds the
    /// cutoff, the final distance (which extends some cell of that row)
    /// must too. A comparison whose true distance *equals* the cutoff is
    /// never abandoned, preserving the naive scan's tie behavior.
    pub fn distance_bounded(
        &mut self,
        a: &PreparedModel,
        b: &PreparedModel,
        cutoff: f64,
    ) -> Bounded {
        match self.distance_bounded_until(a, b, cutoff, None) {
            Ok(outcome) => outcome,
            Err(DeadlineExceeded) => unreachable!("no deadline was given"),
        }
    }

    /// [`SimilarityEngine::distance_bounded`] with an optional wall-clock
    /// deadline — the hook resident services use to cap per-request
    /// similarity work. The deadline is checked once per DTW row (rows
    /// are tens of cells for CST-BBS workloads, so the granularity is
    /// microseconds); when it passes, the comparison is abandoned with
    /// [`DeadlineExceeded`] and the already-computed cells are accounted
    /// as pruned. A `None` deadline is exactly [`SimilarityEngine::distance_bounded`].
    ///
    /// # Errors
    ///
    /// Returns [`DeadlineExceeded`] when `deadline` passes before the
    /// comparison completes or is abandoned by the cutoff.
    pub fn distance_bounded_until(
        &mut self,
        a: &PreparedModel,
        b: &PreparedModel,
        cutoff: f64,
        deadline: Option<Instant>,
    ) -> Result<Bounded, DeadlineExceeded> {
        let (n, m) = (a.len(), b.len());
        if n == 0 && m == 0 {
            return Ok(Bounded::Exact(0.0));
        }
        if n == 0 || m == 0 {
            // Same convention as the naive `dtw`: every unmatched step
            // costs the per-step maximum of 1.
            return Ok(Bounded::Exact((n + m) as f64));
        }
        let mut prev = vec![f64::INFINITY; m + 1];
        let mut cur = vec![f64::INFINITY; m + 1];
        prev[0] = 0.0;
        for i in 0..n {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    let computed = (i * m) as u64;
                    self.stats.cells += computed;
                    self.stats.cells_pruned += (n * m) as u64 - computed;
                    return Err(DeadlineExceeded);
                }
            }
            cur[0] = f64::INFINITY;
            let mut row_min = f64::INFINITY;
            let ida = a.ids[i];
            let ca = a.changes[i];
            for j in 0..m {
                // Identical arithmetic, identical order to `cst_distance`:
                // `(D_IS + D_CSP) / 2` per cell.
                let dis = self.instruction_distance(ida, b.ids[j]);
                let csp = (ca - b.changes[j]).abs();
                let d = (dis + csp) / 2.0;
                let best = prev[j].min(prev[j + 1]).min(cur[j]);
                let cell = d + best;
                cur[j + 1] = cell;
                row_min = row_min.min(cell);
            }
            if row_min > cutoff {
                let computed = ((i + 1) * m) as u64;
                self.stats.cells += computed;
                self.stats.cells_pruned += (n * m) as u64 - computed;
                return Ok(Bounded::AtLeast(row_min));
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        self.stats.cells += (n * m) as u64;
        Ok(Bounded::Exact(prev[m]))
    }

    /// Record a lower-bound skip of an `n × m` comparison in the stats.
    pub(crate) fn note_lb_skip(&mut self, a: &PreparedModel, b: &PreparedModel) {
        self.stats.lb_skips += 1;
        self.stats.cells_pruned += (a.len() * b.len()) as u64;
    }
}

/// A resumable exact DTW against one fixed repository entry, for targets
/// that grow between scoring rounds (streaming detection re-scores an
/// enrolled entry against every prefix of the model under construction).
///
/// The DP is row-major with the *target* as rows, so when a new target
/// extends the previously scored one step-for-step, only the added rows
/// are computed — the cached final DP row is resumed. Per-cell arithmetic
/// and evaluation order replicate [`SimilarityEngine::distance`]'s
/// no-cutoff path exactly; DTW's DP is transpose-symmetric under these
/// per-cell operations (the three predecessor cells map onto each other
/// and `f64::min` over non-negative values is commutative), so the result
/// is **bitwise identical** to `distance()` in either argument order. If
/// the new target does *not* extend the consumed prefix (streamed models
/// are not append-only: a block's CST or the relevant-block set can
/// change as evidence accumulates), the cache resets and the full DP
/// reruns — correctness never depends on append-only growth.
#[derive(Debug, Clone)]
pub struct PrefixDtw {
    /// Interned ids / change magnitudes of the fixed entry (columns).
    eids: Vec<u32>,
    echanges: Vec<f64>,
    /// The target rows consumed so far, kept to validate extension.
    tids: Vec<u32>,
    tchanges: Vec<f64>,
    /// The DP row after consuming `tids.len()` target rows.
    row: Vec<f64>,
    /// Times the cache had to reset because the target did not extend
    /// the consumed prefix.
    rebuilds: u64,
}

impl PrefixDtw {
    /// A fresh resumable comparison against `entry`.
    pub fn new(entry: &PreparedModel) -> PrefixDtw {
        let m = entry.len();
        let mut row = vec![f64::INFINITY; m + 1];
        row[0] = 0.0;
        PrefixDtw {
            eids: entry.ids.clone(),
            echanges: entry.changes.clone(),
            tids: Vec::new(),
            tchanges: Vec::new(),
            row,
            rebuilds: 0,
        }
    }

    /// How often the cache reset because a target failed to extend the
    /// previously consumed prefix.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Whether `target` extends the consumed prefix bitwise (same
    /// interned ids, same change magnitudes) so the cached row can be
    /// resumed.
    fn extends(&self, target: &PreparedModel) -> bool {
        let k = self.tids.len();
        target.len() >= k
            && target.ids[..k] == self.tids[..]
            && target.changes[..k]
                .iter()
                .zip(&self.tchanges)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// The exact DTW distance from `target` to the fixed entry — bitwise
    /// identical to `engine.distance(&target, &entry)` — computing only
    /// the rows `target` adds beyond the last scored prefix when it
    /// extends it.
    pub fn distance_to(&mut self, engine: &mut SimilarityEngine, target: &PreparedModel) -> f64 {
        let (n, m) = (target.len(), self.eids.len());
        if n == 0 || m == 0 {
            // Same conventions as `distance`; the DP cache is untouched.
            return if n == 0 && m == 0 {
                0.0
            } else {
                (n + m) as f64
            };
        }
        if !self.extends(target) {
            self.rebuilds += 1;
            self.tids.clear();
            self.tchanges.clear();
            self.row.fill(f64::INFINITY);
            self.row[0] = 0.0;
        }
        let mut cur = vec![f64::INFINITY; m + 1];
        for i in self.tids.len()..n {
            cur[0] = f64::INFINITY;
            let ida = target.ids[i];
            let ca = target.changes[i];
            for j in 0..m {
                // Identical arithmetic, identical order to
                // `distance_bounded_until`'s no-cutoff path.
                let dis = engine.instruction_distance(ida, self.eids[j]);
                let csp = (ca - self.echanges[j]).abs();
                let d = (dis + csp) / 2.0;
                let best = self.row[j].min(self.row[j + 1]).min(cur[j]);
                cur[j + 1] = d + best;
            }
            engine.stats.cells += m as u64;
            std::mem::swap(&mut self.row, &mut cur);
            self.tids.push(ida);
            self.tchanges.push(ca);
        }
        self.row[m]
    }
}

/// One side of the interval-envelope bound over step lengths: the summed
/// halved length-ratio floor of `a`'s steps against `b`'s *length
/// interval* `[lo, hi]`, priced in `O(log n)` from `a`'s prefix sums.
///
/// A Levenshtein distance is at least the length difference, so
/// `D_IS ≥ |q - l| / max(q, l)` for steps of lengths `q` and `l`. For an
/// `a`-step of length `q` matched to any `b`-step of length `l ∈ [lo, hi]`:
/// if `q < lo` that floor is `1 - q/l ≥ 1 - q/lo`; if `q > hi` it is
/// `1 - l/q ≥ 1 - hi/q`; otherwise it is 0. Summing the closed forms over the sorted prefix sums gives
/// the same value a term-by-term loop would (clamped at 0 against float
/// drift, which only ever weakens the bound).
fn interval_len_sum(a: &PreparedModel, b: &PreparedModel) -> f64 {
    let lo = b.sorted_lens[0];
    let hi = *b.sorted_lens.last().expect("nonempty");
    let n = a.sorted_lens.len();
    let at = a.lens_below(lo);
    let left = if lo > 0 {
        (at as f64 - a.prefix_len[at] / f64::from(lo)).max(0.0)
    } else {
        0.0
    };
    let bt = a.lens_at_most(hi);
    let right =
        ((n - bt) as f64 - f64::from(hi) * (a.prefix_inv_len[n] - a.prefix_inv_len[bt])).max(0.0);
    0.5 * (left + right)
}

/// One side of the interval-envelope bound over change magnitudes: the
/// summed halved gap of `a`'s changes to `b`'s change interval, again in
/// `O(log n)` from prefix sums (`|c - d| ≥ max(lo - c, c - hi, 0)` for
/// any `d ∈ [lo, hi]`).
fn interval_change_sum(a: &PreparedModel, b: &PreparedModel) -> f64 {
    let lo = b.sorted_changes[0];
    let hi = *b.sorted_changes.last().expect("nonempty");
    let n = a.sorted_changes.len();
    let at = a.sorted_changes.partition_point(|&c| c < lo);
    let left = (at as f64 * lo - a.prefix_change[at]).max(0.0);
    let bt = a.sorted_changes.partition_point(|&c| c <= hi);
    let right = ((a.prefix_change[n] - a.prefix_change[bt]) - (n - bt) as f64 * hi).max(0.0);
    0.5 * (left + right)
}

/// **Interval-envelope lower bound** on the DTW distance, `O(log n + log m)`.
///
/// The scan's phase-0 bound: it prices every step against the other
/// model's *value interval* — `[min, max]` of its step lengths and change
/// magnitudes — using prefix sums over the already-sorted arrays. Per
/// model pair that's four closed-form sums and a handful of binary
/// searches, cheap enough to evaluate for *every* repository entry; the
/// repo scan uses it both as the first skip check and as the index sort
/// key component.
///
/// Admissible: a warping path visits every step at least once, each
/// visit costs `(D_IS + D_CSP)/2`, `D_IS` is at least the normalized
/// length difference and `D_CSP` is the change gap, and each component's
/// gap to the other model's value interval never exceeds its gap to the
/// actually-matched value. The maximum over the four sides
/// (lengths/changes × both models) is therefore `≤` the true distance.
/// Mirrors the naive empty-model conventions exactly.
///
/// Rounding: the prefix sums are of at most `N = n + m` terms, each at
/// most 1 (a change magnitude, or `1/len`), and the sides subtract sums
/// of that size, so their absolute error stays below `2·(1 + L)·N²·ε`,
/// where `L` is the longer of the two models' longest blocks (the factor
/// that multiplies a `1/len` prefix difference). The bound subtracts
/// four times that before [`deflate`] adds the DTW's own margin, so it
/// stays bitwise `≤` the DTW even when it is tight, as it is for a
/// target whose blocks an entry repeats with other cache changes.
pub fn lb_interval(a: &PreparedModel, b: &PreparedModel) -> f64 {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return if n == 0 && m == 0 {
            0.0
        } else {
            (n + m) as f64
        };
    }
    let raw = interval_len_sum(a, b)
        .max(interval_len_sum(b, a))
        .max(interval_change_sum(a, b))
        .max(interval_change_sum(b, a));
    let longest = a.sorted_lens[n - 1].max(b.sorted_lens[m - 1]);
    let steps = (n + m) as f64;
    let slack = 8.0 * (1.0 + f64::from(longest)) * steps * steps * f64::EPSILON;
    deflate((raw - slack).max(0.0), n + m)
}

/// A lower bound's rounding margin against the DTW distance of models
/// with `steps = n + m` steps between them: `bound × (1 − 4·steps·ε)`.
///
/// The DTW's result is the left-to-right `f64` sum of the cell costs
/// along one warping path of at most `N = n + m` cells. With unit
/// roundoff `u = ε/2`, a left-to-right sum of `k` non-negative terms lies
/// within a relative `γ_k = k·u / (1 − k·u)` of the exact sum, and each
/// cell lies within a relative `2u` of the exact `(D_IS + D_CSP) / 2` it
/// rounds. So a bound that comes within a relative `γ_N` of an exact
/// value `≤` the path's exact sum `S` stays `≤` the DTW once multiplied
/// by `1 − 8N·u` (exactly representable) and rounded:
/// `(1 + γ_N)(1 − 8N·u)(1 + u)·S ≤ (1 − γ_N)(1 − 2u)·S` for every `N ≥ 1`
/// with `N·u` far below 1, that is for every model that fits in memory.
pub(crate) fn deflate(bound: f64, steps: usize) -> f64 {
    bound * (1.0 - 4.0 * steps as f64 * f64::EPSILON)
}

/// `D_IS`'s bag floor for two sequences, from the longer length `max` and
/// the size `common` of their multiset intersection: `(max - common) /
/// max`, and 0 when both are empty.
///
/// An edit script with `k` matches, `s` substitutions, `d` deletions and
/// `i` insertions between sequences of lengths `p = k + s + d` and
/// `q = k + s + i` costs `s + d + i ≥ max(p, q) - k`, and its matches pair
/// equal letters one to one, so `k ≤ common`. Hence `lev ≥ max - common`.
/// The quotient is the `f64` division `compute_dis` performs, over the
/// same denominator and a numerator no larger than the Levenshtein
/// distance, and IEEE division rounds monotonically: the floor is bitwise
/// `≤` the cached `D_IS`.
#[inline]
fn bag_floor(max: u32, common: u32) -> f64 {
    if max == 0 {
        0.0
    } else {
        f64::from(max - common) / f64::from(max)
    }
}

/// The repository side of a [`BagBound`], built once per repository
/// generation and shared, read-only, by every clone.
#[derive(Debug)]
struct BagTable {
    /// Letter of each normalized instruction in the interned sequences.
    alphabet: HashMap<NormInst, u32>,
    /// Sparse letter histogram of every sequence interned when the table
    /// was built, as `(letter, count)` pairs in letter order: sequence
    /// `r`'s is `hist[hist_at[r]..hist_at[r + 1]]`.
    hist_at: Vec<usize>,
    hist: Vec<(u32, u32)>,
    /// Length of each of those sequences.
    seq_len: Vec<u32>,
    /// The distinct `(sequence id, change)` steps of the entries.
    steps: Vec<(u32, f64)>,
    /// Every entry's steps in step order, as indices into `steps`: entry
    /// `e`'s are `entry_steps[entry_at[e]..entry_at[e + 1]]`.
    entry_at: Vec<usize>,
    entry_steps: Vec<u32>,
}

impl BagTable {
    fn build(engine: &SimilarityEngine, entries: &[PreparedModel]) -> BagTable {
        let mut alphabet: HashMap<NormInst, u32> = HashMap::new();
        let mut hist_at = Vec::with_capacity(engine.seqs.len() + 1);
        let mut hist = Vec::new();
        let mut seq_len = Vec::with_capacity(engine.seqs.len());
        let mut letters: Vec<u32> = Vec::new();
        hist_at.push(0);
        for seq in &engine.seqs {
            letters.clear();
            for inst in seq {
                let next = u32::try_from(alphabet.len()).expect("alphabet overflow");
                letters.push(*alphabet.entry(*inst).or_insert(next));
            }
            letters.sort_unstable();
            for run in letters.chunk_by(|x, y| x == y) {
                hist.push((run[0], u32::try_from(run.len()).expect("block too long")));
            }
            hist_at.push(hist.len());
            seq_len.push(u32::try_from(seq.len()).expect("block too long"));
        }
        let total = entries.iter().map(PreparedModel::len).sum();
        let mut distinct: HashMap<(u32, u64), u32> = HashMap::new();
        let mut steps = Vec::new();
        let mut entry_at = Vec::with_capacity(entries.len() + 1);
        let mut entry_steps = Vec::with_capacity(total);
        entry_at.push(0);
        for model in entries {
            for (&id, &change) in model.ids.iter().zip(&model.changes) {
                let next = u32::try_from(steps.len()).expect("step table overflow");
                let s = *distinct.entry((id, change.to_bits())).or_insert_with(|| {
                    steps.push((id, change));
                    next
                });
                entry_steps.push(s);
            }
            entry_at.push(entry_steps.len());
        }
        BagTable {
            alphabet,
            hist_at,
            hist,
            seq_len,
            steps,
            entry_at,
            entry_steps,
        }
    }

    /// Sequence `r`'s sparse histogram, if the table covers it.
    fn runs(&self, r: u32) -> Option<&[(u32, u32)]> {
        let r = r as usize;
        (r + 1 < self.hist_at.len()).then(|| &self.hist[self.hist_at[r]..self.hist_at[r + 1]])
    }
}

/// The target side of a [`BagBound`] for one query.
#[derive(Debug, Clone, Default)]
struct BagTarget {
    /// The target's distinct interned sequence ids, sorted.
    seqs: Vec<u32>,
    /// Dense letter histograms of `seqs`, one alphabet-wide row each. A
    /// letter outside the repository's alphabet matches nothing there
    /// and counts toward `lens` only.
    rows: Vec<u32>,
    /// Length of each of `seqs`.
    lens: Vec<u32>,
    /// The target's steps in step order: index into `seqs`, and change.
    steps: Vec<(u32, f64)>,
    /// Scratch: the bag floor from each of `seqs` to the repository
    /// sequence being priced.
    floors: Vec<f64>,
}

impl BagTarget {
    /// Distinct step `s`'s term: the least cost any DTW cell of its column
    /// can have, with the bag floor standing in for `D_IS`.
    fn term(&mut self, table: &BagTable, s: u32) -> f64 {
        let (r, change) = table.steps[s as usize];
        let runs = table.runs(r).expect("a repository sequence");
        let len = table.seq_len[r as usize];
        let width = table.alphabet.len();
        for (k, floor) in self.floors.iter_mut().enumerate() {
            let row = &self.rows[k * width..(k + 1) * width];
            let common: u32 = runs.iter().map(|&(l, c)| c.min(row[l as usize])).sum();
            *floor = bag_floor(len.max(self.lens[k]), common);
        }
        self.steps.iter().fold(f64::INFINITY, |best, &(k, c)| {
            // Written exactly as the DTW cell is: target change minus
            // entry change.
            best.min((self.floors[k as usize] + (c - change).abs()) / 2.0)
        })
    }
}

/// **Bag lower bound** on the DTW distance from one target to each entry
/// of a repository, from the multisets ("bags") of normalized
/// instructions ("letters") in their steps.
///
/// Admissible: for every step pair, `D_IS` is at least its bag floor
/// `(max(p, q) − |bag ∩ bag|) / max(p, q)`, bitwise (see `bag_floor`). A
/// warping path visits every entry step `s` at least once, in a cell that
/// costs `(D_IS(t, s) + |c_t − c_s|) / 2` for some target step `t`, so the
/// distance is at least `Σ_s min_t (floor(t, s) + |c_t − c_s|) / 2`.
/// Each term is written exactly as the DTW cell is, so it is bitwise `≤`
/// every cell of its column (`f64` addition and halving round
/// monotonically).
///
/// Rounding: the bound sums `m` terms, each bitwise `≤` a distinct cell
/// of the DTW's optimal path, in another order than the DTW adds them,
/// so [`deflate`] gives it a margin. A scan skips an entry only when the
/// bound is strictly above its cutoff.
///
/// The repository side — the alphabet, every interned sequence's sparse
/// histogram, the distinct `(sequence, change)` steps and each entry's
/// steps as indices into them — is built by [`BagBound::new`] and shared
/// by every clone. Per query, [`BagBound::begin`] histograms the target's
/// distinct sequences, and [`BagBound::bound`] prices an entry's steps
/// through a memo over the distinct steps, which a per-query stamp
/// invalidates: a query pays for the steps of the entries it asks about
/// and for nothing else in the repository.
#[derive(Debug, Clone)]
pub struct BagBound {
    table: Arc<BagTable>,
    target: BagTarget,
    /// Per distinct repository step: the stamp of the query that priced
    /// it, and its term.
    memo: Vec<(u32, f64)>,
    /// The current query's stamp; 0 before the first query.
    stamp: u32,
}

impl BagBound {
    /// The bound over `entries`, models prepared by `engine`.
    pub fn new(engine: &SimilarityEngine, entries: &[PreparedModel]) -> BagBound {
        let table = BagTable::build(engine, entries);
        BagBound {
            memo: vec![(0, 0.0); table.steps.len()],
            table: Arc::new(table),
            target: BagTarget::default(),
            stamp: 0,
        }
    }

    /// Start a query for `target`, prepared by the engine the bound was
    /// built from or a clone of it. Costs the target's steps and
    /// instructions, whatever the repository's size.
    pub fn begin(&mut self, engine: &SimilarityEngine, target: &PreparedModel) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Once in 2^32 queries: no slot may keep a stamp still to come.
            self.memo.fill((0, 0.0));
            self.stamp = 1;
        }
        let table = &*self.table;
        let t = &mut self.target;
        let width = table.alphabet.len();
        t.seqs.clear();
        t.seqs.extend_from_slice(&target.ids);
        t.seqs.sort_unstable();
        t.seqs.dedup();
        t.rows.clear();
        t.rows.resize(t.seqs.len() * width, 0);
        t.lens.clear();
        for (k, &id) in t.seqs.iter().enumerate() {
            let row = &mut t.rows[k * width..(k + 1) * width];
            let seq = &engine.seqs[id as usize];
            match table.runs(id) {
                Some(runs) => {
                    for &(l, c) in runs {
                        row[l as usize] = c;
                    }
                }
                None => {
                    for inst in seq {
                        if let Some(&l) = table.alphabet.get(inst) {
                            row[l as usize] += 1;
                        }
                    }
                }
            }
            t.lens
                .push(u32::try_from(seq.len()).expect("block too long"));
        }
        t.steps.clear();
        for (id, &change) in target.ids.iter().zip(&target.changes) {
            let k = t.seqs.binary_search(id).expect("a target sequence");
            t.steps.push((k as u32, change));
        }
        t.floors.resize(t.seqs.len(), 0.0);
    }

    /// The bound on the current target's distance to entry `entry` (an
    /// index into the models the bound was built from): bitwise `≤`
    /// `engine.distance(target, entry)`. Exact for an empty model, like
    /// the DTW's conventions.
    pub fn bound(&mut self, entry: usize) -> f64 {
        debug_assert!(self.stamp != 0, "BagBound::begin precedes bound");
        let table = &*self.table;
        let steps = &table.entry_steps[table.entry_at[entry]..table.entry_at[entry + 1]];
        let (n, m) = (self.target.steps.len(), steps.len());
        if n == 0 || m == 0 {
            return if n == 0 && m == 0 {
                0.0
            } else {
                (n + m) as f64
            };
        }
        let mut sum = 0.0f64;
        for &s in steps {
            let slot = &mut self.memo[s as usize];
            if slot.0 != self.stamp {
                *slot = (self.stamp, self.target.term(table, s));
            }
            sum += slot.1;
        }
        deflate(sum, n + m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cst::{Cst, CstStep};
    use crate::similarity::{cst_distance, dtw};
    use sca_cache::CacheState;
    use sca_isa::NormOperand;

    fn step(insts: &[NormInst], ao: f64) -> CstStep {
        CstStep {
            bb_addr: 0,
            norm_insts: insts.to_vec(),
            cst: Cst {
                before: CacheState::full_other(),
                after: CacheState::new(ao, 1.0 - ao),
            },
            first_seen: 0,
        }
    }

    fn ld() -> NormInst {
        NormInst::binary("ld", NormOperand::Reg, NormOperand::Mem)
    }

    fn flush() -> NormInst {
        NormInst::unary("clflush", NormOperand::Mem)
    }

    fn nop() -> NormInst {
        NormInst::nullary("nop")
    }

    fn model(specs: &[(&[NormInst], f64)]) -> CstBbs {
        specs.iter().map(|(insts, ao)| step(insts, *ao)).collect()
    }

    #[test]
    fn engine_matches_naive_exactly() {
        let a = model(&[
            (&[ld(), flush(), ld()], 0.25),
            (&[ld(), flush(), ld()], 0.25),
            (&[nop()], 0.0),
            (&[flush(), flush()], 0.5),
        ]);
        let b = model(&[
            (&[ld(), flush()], 0.3),
            (&[nop(), nop()], 0.1),
            (&[ld(), flush(), ld()], 0.25),
        ]);
        let mut engine = SimilarityEngine::new();
        let (pa, pb) = (engine.prepare(&a), engine.prepare(&b));
        assert_eq!(
            engine.distance(&pa, &pb),
            dtw(a.steps(), b.steps(), cst_distance)
        );
        assert_eq!(engine.distance(&pa, &pa), 0.0);
        // Repeated blocks share interned ids, so the cache hits.
        let stats = engine.stats();
        assert!(stats.cache_hits > 0, "{stats:?}");
        assert!(stats.cache_misses > 0, "{stats:?}");
    }

    #[test]
    fn empty_conventions_match_naive() {
        let empty = CstBbs::default();
        let one = model(&[(&[ld()], 0.5)]);
        let mut engine = SimilarityEngine::new();
        let pe = engine.prepare(&empty);
        let p1 = engine.prepare(&one);
        assert_eq!(engine.distance(&pe, &pe), 0.0);
        assert_eq!(engine.distance(&pe, &p1), 1.0);
        assert_eq!(engine.distance(&p1, &pe), 1.0);
        assert_eq!(lb_interval(&pe, &p1), 1.0);
        assert_eq!(lb_interval(&pe, &pe), 0.0);
        let mut bags = BagBound::new(&engine, &[pe.clone(), p1.clone()]);
        bags.begin(&engine, &p1);
        assert_eq!((bags.bound(0), bags.bound(1)), (1.0, 0.0));
        bags.begin(&engine, &pe);
        assert_eq!((bags.bound(0), bags.bound(1)), (0.0, 1.0));
    }

    #[test]
    fn early_abandoning_prunes_and_never_underreports() {
        let a = model(&[(&[ld(); 4], 0.9), (&[ld(); 4], 0.9), (&[ld(); 4], 0.9)]);
        let b = model(&[(&[nop()], 0.0), (&[nop()], 0.0), (&[nop()], 0.0)]);
        let mut engine = SimilarityEngine::new();
        let (pa, pb) = (engine.prepare(&a), engine.prepare(&b));
        let true_d = engine.distance(&pa, &pb);
        assert!(true_d > 0.5);
        let before = engine.stats();
        match engine.distance_bounded(&pa, &pb, 0.5) {
            Bounded::AtLeast(lb) => {
                assert!(lb > 0.5 && lb <= true_d);
            }
            Bounded::Exact(_) => panic!("distance {true_d} should exceed cutoff 0.5"),
        }
        let delta = engine.stats().since(&before);
        assert!(delta.cells_pruned > 0, "{delta:?}");
        assert_eq!(delta.cells + delta.cells_pruned, 9);
    }

    #[test]
    fn cutoff_equal_to_distance_is_not_abandoned() {
        let a = model(&[(&[ld()], 0.4), (&[flush()], 0.2)]);
        let b = model(&[(&[nop()], 0.1)]);
        let mut engine = SimilarityEngine::new();
        let (pa, pb) = (engine.prepare(&a), engine.prepare(&b));
        let d = engine.distance(&pa, &pb);
        assert_eq!(engine.distance_bounded(&pa, &pb, d), Bounded::Exact(d));
    }

    #[test]
    fn lower_bounds_are_admissible() {
        let a = model(&[
            (&[ld(), flush(), ld(), ld()], 0.45),
            (&[nop()], 0.05),
            (&[flush()], 0.3),
        ]);
        let b = model(&[(&[ld()], 0.5), (&[nop(), nop(), nop()], 0.0)]);
        let mut engine = SimilarityEngine::new();
        let (pa, pb) = (engine.prepare(&a), engine.prepare(&b));
        let d = engine.distance(&pa, &pb);
        assert!(lb_interval(&pa, &pb) <= d);
        let mut bags = BagBound::new(&engine, std::slice::from_ref(&pb));
        bags.begin(&engine, &pa);
        let bag = bags.bound(0);
        assert!(bag > 0.0 && bag <= d, "bag bound {bag}, distance {d}");
        // A second query re-prices every step instead of reading the
        // first query's memo.
        bags.begin(&engine, &pb);
        assert_eq!(bags.bound(0), 0.0);
        bags.begin(&engine, &pa);
        assert_eq!(bags.bound(0).to_bits(), bag.to_bits());
    }

    /// The bag floor of `D_IS` between two sequences, from a multiset
    /// intersection computed without histograms.
    fn bag_dis(a: &[NormInst], b: &[NormInst]) -> f64 {
        let mut rest = b.to_vec();
        let mut common = 0;
        for inst in a {
            if let Some(at) = rest.iter().position(|x| x == inst) {
                rest.swap_remove(at);
                common += 1;
            }
        }
        bag_floor(a.len().max(b.len()) as u32, common)
    }

    #[test]
    fn bag_floor_never_exceeds_the_normalized_levenshtein() {
        let letters = [ld(), flush(), nop(), NormInst::nullary("halt")];
        let seq = |rng: &mut sca_isa::rng::SmallRng| -> Vec<NormInst> {
            (0..rng.gen_range(0..12usize))
                .map(|_| letters[rng.gen_range(0..letters.len())])
                .collect()
        };
        let mut rng = sca_isa::rng::SmallRng::seed_from_u64(0xba6_f100);
        for case in 0..512 {
            let (a, b) = (seq(&mut rng), seq(&mut rng));
            let max = a.len().max(b.len());
            let lev = if max == 0 {
                0.0
            } else {
                levenshtein(&a, &b) as f64 / max as f64
            };
            let bag = bag_dis(&a, &b);
            assert!(bag <= lev, "case {case}: bag {bag} > lev {lev}");
        }
    }

    #[test]
    fn bag_floor_ignores_order_and_unknown_letters() {
        // A permutation costs Levenshtein edits but no bag floor.
        assert_eq!(bag_dis(&[ld(), flush()], &[flush(), ld()]), 0.0);
        assert_eq!(bag_dis(&[ld(), ld()], &[ld(), flush(), nop()]), 2.0 / 3.0);
        assert_eq!(bag_dis(&[], &[]), 0.0);
        // A target letter the repository never uses matches nothing but
        // still lengthens the target's block.
        let entry = model(&[(&[ld(), flush()], 0.2)]);
        let mut engine = SimilarityEngine::new();
        let pe = engine.prepare(&entry);
        let mut bags = BagBound::new(&engine, std::slice::from_ref(&pe));
        let target = model(&[(&[ld(), nop(), nop(), nop()], 0.2)]);
        let pt = engine.prepare(&target);
        bags.begin(&engine, &pt);
        let d = engine.distance(&pt, &pe);
        // D_IS = 3/4 (three edits), bag floor = (4 - 1)/4: tight here.
        assert_eq!(d, 0.375);
        let bag = bags.bound(0);
        assert!(bag <= d && bag > 0.374, "bag bound {bag}");
    }

    #[test]
    fn deadline_aborts_and_generous_deadline_is_exact() {
        let a = model(&[(&[ld(), flush(), ld()], 0.5), (&[flush()], 0.2)]);
        let b = model(&[(&[nop()], 0.1), (&[ld()], 0.7)]);
        let mut engine = SimilarityEngine::new();
        let (pa, pb) = (engine.prepare(&a), engine.prepare(&b));
        let before = engine.stats();
        let past = Instant::now() - std::time::Duration::from_millis(1);
        assert_eq!(
            engine.distance_bounded_until(&pa, &pb, f64::INFINITY, Some(past)),
            Err(DeadlineExceeded)
        );
        // The abandoned comparison accounts all its cells as pruned.
        let delta = engine.stats().since(&before);
        assert_eq!(delta.cells + delta.cells_pruned, 4);
        // A generous deadline changes nothing: bitwise-identical result.
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let d = engine.distance(&pa, &pb);
        assert_eq!(
            engine.distance_bounded_until(&pa, &pb, f64::INFINITY, Some(far)),
            Ok(Bounded::Exact(d))
        );
    }

    #[test]
    fn prefix_dtw_matches_batch_distance_at_every_prefix() {
        let entry = model(&[
            (&[ld(), flush()], 0.3),
            (&[nop(), nop()], 0.1),
            (&[ld(), flush(), ld()], 0.25),
            (&[flush()], 0.6),
        ]);
        let target = model(&[
            (&[ld(), flush(), ld()], 0.25),
            (&[ld(), flush(), ld()], 0.2),
            (&[nop()], 0.0),
            (&[flush(), flush()], 0.5),
            (&[ld()], 0.45),
        ]);
        let mut engine = SimilarityEngine::new();
        let pe = engine.prepare(&entry);
        let mut pd = PrefixDtw::new(&pe);
        for k in 0..=target.len() {
            let prefix: CstBbs = target.steps()[..k].iter().cloned().collect();
            let pp = engine.prepare(&prefix);
            let resumed = pd.distance_to(&mut engine, &pp);
            // Bitwise identity in both argument orders (the DP is
            // transpose-symmetric).
            assert_eq!(resumed.to_bits(), engine.distance(&pp, &pe).to_bits());
            assert_eq!(resumed.to_bits(), engine.distance(&pe, &pp).to_bits());
        }
        assert_eq!(pd.rebuilds(), 0, "append-only growth must resume");

        // A non-extending target (first step replaced) still scores
        // exactly, through a reset.
        let swapped = model(&[(&[nop()], 0.9), (&[ld()], 0.45)]);
        let ps = engine.prepare(&swapped);
        let d = pd.distance_to(&mut engine, &ps);
        assert_eq!(d.to_bits(), engine.distance(&ps, &pe).to_bits());
        assert_eq!(pd.rebuilds(), 1);

        // Empty conventions match `distance`.
        let pempty = engine.prepare(&CstBbs::default());
        assert_eq!(pd.distance_to(&mut engine, &pempty), 4.0);
        let mut pd_empty = PrefixDtw::new(&pempty);
        assert_eq!(pd_empty.distance_to(&mut engine, &pempty), 0.0);
        assert_eq!(pd_empty.distance_to(&mut engine, &ps), 2.0);
    }

    #[test]
    fn interning_is_shared_across_models() {
        let a = model(&[(&[ld(), flush()], 0.2)]);
        let b = model(&[(&[ld(), flush()], 0.7)]);
        let mut engine = SimilarityEngine::new();
        let pa = engine.prepare(&a);
        let pb = engine.prepare(&b);
        assert_eq!(engine.pool_len(), 1, "identical sequences share one entry");
        assert_eq!(pa.ids, pb.ids);
    }
}

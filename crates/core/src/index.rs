//! A persisted metric index over the model repository: the visit order
//! and the early stop of a repository scan.
//!
//! Without an index a scan visits every entry in repository order, and
//! each visit pays at least the envelope check and, once a best distance
//! is known, the bag bound (DESIGN.md §10). For a target that is close to
//! some entry, [`RepoIndex`] lets the scan find that entry first and stop
//! before visiting the rest:
//!
//! * **Pivots**: a handful of basic-block instruction sequences chosen by
//!   a deterministic greedy k-center sweep over the repository's distinct
//!   sequences. For every entry, the index stores the *sorted* unnormalized
//!   Levenshtein distances from each of its steps to each pivot (plus the
//!   entry's longest step). Levenshtein over sequences is a true metric,
//!   so the triangle inequality turns those stored distances into lower
//!   bounds on any step-to-step `D_IS` without touching the sequences.
//! * **Sort keys** ([`QueryContext::interval_bound`]): per query, each
//!   entry gets an `O(P log n)` lower bound from the pivot distances; the
//!   scan visits entries cheapest-first and *stops* at the first key above
//!   the best distance found so far — every later key is at least as
//!   large, so the remaining entries are rejected wholesale.
//!
//! The pivot bounds are pruning-only: they decide what work the scan
//! *skips*, never what it *reports*, so detections are byte-identical
//! with and without an index (asserted in tests and in the bench before
//! timing). The index is built at enroll time, persisted beside the repo
//! (`persist::save_index`), and validated against the repository by
//! fingerprint on load so a stale sidecar can never influence a scan.

use std::collections::HashMap;
use std::fmt;

use sca_isa::NormInst;

use crate::cst::CstBbs;
use crate::detector::ModelRepository;
use crate::engine::deflate;
use crate::similarity::levenshtein;

/// Tuning knobs for [`RepoIndex::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexConfig {
    /// Number of pivot sequences to select (capped by the number of
    /// distinct sequences in the repository). More pivots sharpen the
    /// triangle bounds at `O(P)` extra work per bound evaluation.
    pub pivots: usize,
}

impl Default for IndexConfig {
    fn default() -> IndexConfig {
        IndexConfig { pivots: 4 }
    }
}

/// Greedy k-center candidate pool cap: pivot selection is quadratic in
/// the pool, so it considers at most this many distinct sequences (in
/// first-occurrence order — deterministic for a given repository).
const CANDIDATE_CAP: usize = 256;

/// Per-entry index payload: what the pivot bounds need to price an entry
/// without touching its model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct EntryPivots {
    /// Length of the entry's longest step sequence (0 for an empty model).
    pub(crate) max_len: u32,
    /// For each pivot, the entry's per-step Levenshtein distances to that
    /// pivot, **sorted ascending** (one inner vec per pivot; empty for an
    /// empty model).
    pub(crate) levs: Vec<Vec<u32>>,
}

/// The persisted metric index over a [`ModelRepository`].
///
/// Built once at enroll time ([`RepoIndex::build`]), persisted via
/// `persist::save_index`, and attached to a `Detector` with
/// `Detector::set_index`. [`RepoIndex::matches`] ties an index to the
/// exact repository it was built from ([`repo_fingerprint`]), so stale
/// or foreign sidecars are rejected and rebuilt instead of silently
/// degrading a scan.
#[derive(Debug, Clone, PartialEq)]
pub struct RepoIndex {
    pub(crate) fingerprint: u64,
    pub(crate) pivots: Vec<Vec<NormInst>>,
    pub(crate) entries: Vec<EntryPivots>,
    /// Flat per-(entry, pivot) `[min, max]` stored-distance endpoints,
    /// entry-major — all [`QueryContext::interval_bound`] needs, laid
    /// out so the per-query sort-key pass streams sequential memory
    /// instead of chasing each entry's per-pivot vectors. `(1, 0)`
    /// (empty interval) marks a pivot with no stored distances. Derived
    /// from `entries` on build and load, never persisted.
    intervals: Vec<(u32, u32)>,
    /// Flat copy of each entry's `max_len`, same motivation.
    max_lens: Vec<u32>,
    /// Each entry's step count (the length of any of its pivot distance
    /// lists; 0 without pivots), for the rounding margin.
    step_counts: Vec<usize>,
}

/// The identity an index is bound to: FNV-1a of the repository's text.
///
/// For a repository read from a file (or [`ModelRepository::from_text`])
/// that is the text as read — the sidecar is keyed to the repository
/// file's bytes, fingerprinted while they are in hand. For one built in
/// memory it is the canonical serialization
/// ([`crate::persist::repository_to_string`]). The two agree for every
/// file `build-repo` writes. A file that differs from its canonical
/// text, by a whitespace edit say, fingerprints differently: its sidecar
/// reads as stale and the index is rebuilt in memory, with unchanged
/// detections. The value is cached on the repository until its next
/// mutation, so only a repository built in memory is ever serialized
/// here.
pub fn repo_fingerprint(repo: &ModelRepository) -> u64 {
    repo.fingerprint()
}

/// An index was attached to a repository it was not built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexMismatch;

impl fmt::Display for IndexMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "repository index does not match the repository it was attached to (stale or foreign index)"
        )
    }
}

impl std::error::Error for IndexMismatch {}

impl RepoIndex {
    /// Build the index for `repo`. Deterministic: the same repository
    /// always yields the same pivots and the same serialized index.
    pub fn build(repo: &ModelRepository, config: &IndexConfig) -> RepoIndex {
        let fingerprint = repo_fingerprint(repo);
        // Distinct step sequences in first-occurrence order.
        let mut seen: HashMap<&[NormInst], usize> = HashMap::new();
        let mut distinct: Vec<&[NormInst]> = Vec::new();
        for entry in repo.entries() {
            for step in entry.model.steps() {
                let seq: &[NormInst] = &step.norm_insts;
                if !seen.contains_key(seq) {
                    seen.insert(seq, distinct.len());
                    distinct.push(seq);
                }
            }
        }
        let pool = &distinct[..distinct.len().min(CANDIDATE_CAP)];
        let pivots = select_pivots(pool, config.pivots);
        // Per distinct sequence, its Levenshtein distance to each pivot —
        // computed once and shared by every step that interns to it.
        let dist_to_pivots: Vec<Vec<u32>> = distinct
            .iter()
            .map(|seq| pivots.iter().map(|p| lev_u32(seq, p)).collect())
            .collect();
        let entries = repo
            .entries()
            .iter()
            .map(|entry| {
                let steps = entry.model.steps();
                let max_len = steps
                    .iter()
                    .map(|s| u32::try_from(s.norm_insts.len()).expect("block too long"))
                    .max()
                    .unwrap_or(0);
                let mut levs: Vec<Vec<u32>> = vec![Vec::with_capacity(steps.len()); pivots.len()];
                for step in steps {
                    let did = seen[&step.norm_insts[..]];
                    for (p, lev) in dist_to_pivots[did].iter().enumerate() {
                        levs[p].push(*lev);
                    }
                }
                for per_pivot in &mut levs {
                    per_pivot.sort_unstable();
                }
                EntryPivots { max_len, levs }
            })
            .collect();
        RepoIndex::from_parts(
            fingerprint,
            pivots.into_iter().map(<[NormInst]>::to_vec).collect(),
            entries,
        )
    }

    /// Assemble an index from its built or persisted parts, deriving
    /// the flat per-(entry, pivot) interval layout the sort-key pass
    /// streams.
    pub(crate) fn from_parts(
        fingerprint: u64,
        pivots: Vec<Vec<NormInst>>,
        entries: Vec<EntryPivots>,
    ) -> RepoIndex {
        let mut intervals = Vec::with_capacity(entries.len() * pivots.len());
        let mut max_lens = Vec::with_capacity(entries.len());
        let mut step_counts = Vec::with_capacity(entries.len());
        for e in &entries {
            max_lens.push(e.max_len);
            step_counts.push(e.levs.first().map_or(0, Vec::len));
            for levs in &e.levs {
                match (levs.first(), levs.last()) {
                    (Some(&lo), Some(&hi)) => intervals.push((lo, hi)),
                    _ => intervals.push((1, 0)),
                }
            }
        }
        RepoIndex {
            fingerprint,
            pivots,
            entries,
            intervals,
            max_lens,
            step_counts,
        }
    }

    /// Whether this index was built from exactly this repository.
    pub fn matches(&self, repo: &ModelRepository) -> bool {
        self.entries.len() == repo.len() && self.fingerprint == repo_fingerprint(repo)
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index covers no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of pivot sequences.
    pub fn pivot_count(&self) -> usize {
        self.pivots.len()
    }

    /// Prepare a query: the target's per-step Levenshtein distances to
    /// every pivot (memoized per distinct step sequence), sorted with
    /// prefix sums so per-entry bounds come out in `O(P log n)`.
    pub fn query(&self, target: &CstBbs) -> QueryContext<'_> {
        let steps = target.steps();
        let mut memo: HashMap<&[NormInst], Vec<u32>> = HashMap::new();
        let mut per_step: Vec<Vec<u32>> = vec![Vec::with_capacity(steps.len()); self.pivots.len()];
        let mut max_len = 0u32;
        for step in steps {
            let seq: &[NormInst] = &step.norm_insts;
            let levs = memo
                .entry(seq)
                .or_insert_with(|| self.pivots.iter().map(|p| lev_u32(seq, p)).collect());
            for (p, lev) in levs.iter().enumerate() {
                per_step[p].push(*lev);
            }
            max_len = max_len.max(u32::try_from(seq.len()).expect("block too long"));
        }
        let mut sorted = Vec::with_capacity(per_step.len());
        let mut pre = Vec::with_capacity(per_step.len());
        let mut luts = Vec::with_capacity(per_step.len());
        for mut s in per_step {
            s.sort_unstable();
            let mut acc = Vec::with_capacity(s.len() + 1);
            let mut sum = 0u64;
            acc.push(0);
            for &v in &s {
                sum += u64::from(v);
                acc.push(sum);
            }
            luts.push(PivotLut::build(&s, &acc));
            sorted.push(s);
            pre.push(acc);
        }
        QueryContext {
            index: self,
            sorted,
            pre,
            luts,
            max_len,
        }
    }
}

/// Distance values above this skip the LUT (a table that large would
/// cost more than the binary searches it replaces). Far beyond any
/// realistic basic-block Levenshtein distance.
const LUT_VALUE_CAP: u32 = 1 << 16;

/// One pivot's value-indexed cumulative tables over the target's pivot
/// distances: `cnt[v]` and `sum[v]` are the count and `u64` sum of
/// target distances `<= v`, for `v` up to the largest target distance.
/// Turns the two binary searches per [`QueryContext::interval_bound`]
/// call into two array loads; the arithmetic is integer-identical to
/// the search path, which remains the fallback when no table exists.
#[derive(Debug)]
struct PivotLut {
    cnt: Vec<u32>,
    sum: Vec<u64>,
}

impl PivotLut {
    /// Build the tables from one pivot's sorted target distances `s` and
    /// their prefix sums `pre` (`pre[i]` = sum of the `i` smallest).
    /// `None` when there are no distances or the largest is implausibly
    /// big.
    fn build(s: &[u32], pre: &[u64]) -> Option<PivotLut> {
        let &max = s.last()?;
        if max >= LUT_VALUE_CAP {
            return None;
        }
        let mut cnt = vec![0u32; max as usize + 1];
        for &v in s {
            cnt[v as usize] += 1;
        }
        let mut sum = vec![0u64; max as usize + 1];
        let mut seen = 0u32;
        for v in 0..=max as usize {
            seen += cnt[v];
            cnt[v] = seen;
            sum[v] = pre[seen as usize];
        }
        Some(PivotLut { cnt, sum })
    }

    /// `(count, sum)` of target distances `<= v`.
    #[inline]
    fn le(&self, v: u32) -> (usize, u64) {
        let i = (v as usize).min(self.cnt.len() - 1);
        (self.cnt[i] as usize, self.sum[i])
    }
}

/// Greedy k-center over the candidate pool: the first pivot is the
/// longest sequence (earliest occurrence on ties), each further pivot
/// maximizes its minimum Levenshtein distance to the already-chosen set
/// (again earliest-first on ties). Deterministic, and distinct candidates
/// guarantee positive separation until the pool is exhausted.
fn select_pivots<'a>(pool: &[&'a [NormInst]], want: usize) -> Vec<&'a [NormInst]> {
    let k = want.min(pool.len());
    if k == 0 {
        return Vec::new();
    }
    let mut first = 0;
    for (i, seq) in pool.iter().enumerate() {
        if seq.len() > pool[first].len() {
            first = i;
        }
    }
    let mut chosen = vec![pool[first]];
    let mut min_d: Vec<u32> = pool.iter().map(|seq| lev_u32(seq, pool[first])).collect();
    while chosen.len() < k {
        let mut best = 0;
        for (i, &d) in min_d.iter().enumerate() {
            if d > min_d[best] {
                best = i;
            }
        }
        if min_d[best] == 0 {
            break;
        }
        chosen.push(pool[best]);
        for (i, seq) in pool.iter().enumerate() {
            min_d[i] = min_d[i].min(lev_u32(seq, pool[best]));
        }
    }
    chosen
}

fn lev_u32(a: &[NormInst], b: &[NormInst]) -> u32 {
    u32::try_from(levenshtein(a, b)).expect("sequence too long")
}

/// A target readied for pivot-bound evaluation against every entry of one
/// index. Built once per classify by [`RepoIndex::query`].
#[derive(Debug)]
pub struct QueryContext<'a> {
    index: &'a RepoIndex,
    /// Per pivot, the target's per-step Levenshtein distances, sorted
    /// ascending.
    sorted: Vec<Vec<u32>>,
    /// `u64` prefix sums over `sorted` (index `i` = sum of the `i`
    /// smallest values) — exact integer arithmetic, no float drift.
    pre: Vec<Vec<u64>>,
    /// Per-pivot cumulative lookup tables over `sorted`, replacing the
    /// two binary searches per [`QueryContext::interval_bound`] call
    /// with two array loads (`None` falls back to the searches).
    luts: Vec<Option<PivotLut>>,
    /// The target's longest step sequence.
    max_len: u32,
}

impl QueryContext<'_> {
    /// The pivot bound used as the scan's sort-key component,
    /// `O(P log n)`: for each pivot, every target step's gap to the
    /// entry's *interval* of stored pivot distances, summed via prefix
    /// sums and normalized by the largest step length either model could
    /// contribute; the best pivot wins.
    ///
    /// Admissible: a warping path visits every target step `i` at least
    /// once, each visit costs at least `D_IS/2 = lev(i, j) / (2·max(l_i,
    /// l_j))`, and by the Levenshtein triangle inequality `lev(i, j) ≥
    /// |lev(i, p) − lev(j, p)| ≥` the gap of `lev(i, p)` to the entry's
    /// `[min, max]` pivot-distance interval. Enlarging the denominator to
    /// `2·max(target max_len, entry max_len)` (≥ any `max(l_i, l_j)`)
    /// keeps the closed-form sum below the per-step sum it relaxes. The
    /// sums are exact integers and the quotient is rounded once, so the
    /// DTW's rounding margin (as for the engine's bounds) keeps the value
    /// bitwise `≤` the DTW distance.
    pub fn interval_bound(&self, entry: usize) -> f64 {
        let ix = self.index;
        let denom_len = self.max_len.max(ix.max_lens[entry]);
        if denom_len == 0 {
            return 0.0;
        }
        let denom = 2.0 * f64::from(denom_len);
        let p_cnt = ix.pivots.len();
        let mut best = 0.0f64;
        for (p, &(lo, hi)) in ix.intervals[entry * p_cnt..][..p_cnt].iter().enumerate() {
            if lo > hi {
                // Empty-interval sentinel: no stored distances for this
                // pivot.
                continue;
            }
            let s = &self.sorted[p];
            let pre = &self.pre[p];
            let n = s.len();
            // `(count, sum)` of target distances `< lo` and `<= hi` —
            // two table loads per pivot, or two binary searches when no
            // table was built. Identical integers either way.
            let ((a, sum_a), (b, sum_b)) = match &self.luts[p] {
                Some(lut) => {
                    let below = if lo == 0 { (0, 0) } else { lut.le(lo - 1) };
                    (below, lut.le(hi))
                }
                None => {
                    let a = s.partition_point(|&x| x < lo);
                    let b = s.partition_point(|&x| x <= hi);
                    ((a, pre[a]), (b, pre[b]))
                }
            };
            let left = u64::from(lo) * a as u64 - sum_a;
            let right = (pre[n] - sum_b) - u64::from(hi) * (n - b) as u64;
            best = best.max((left + right) as f64 / denom);
        }
        let steps = self.sorted.first().map_or(0, Vec::len) + ix.step_counts[entry];
        deflate(best, steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cst::{Cst, CstStep};
    use sca_attacks::AttackFamily;

    fn step(tokens: &[&'static str]) -> CstStep {
        CstStep {
            bb_addr: 0,
            norm_insts: tokens.iter().map(|t| NormInst::nullary(t)).collect(),
            cst: Cst::identity(),
            first_seen: 0,
        }
    }

    fn model(blocks: &[&[&'static str]]) -> CstBbs {
        blocks.iter().map(|b| step(b)).collect()
    }

    fn small_repo() -> ModelRepository {
        let mut repo = ModelRepository::new();
        repo.add_model(
            AttackFamily::FlushReload,
            "a",
            model(&[&["ld", "clflush"], &["ld"]]),
        );
        repo.add_model(
            AttackFamily::PrimeProbe,
            "b",
            model(&[&["nop", "nop", "nop"], &["ld", "ld"]]),
        );
        repo.add_model(AttackFamily::SpectreFlushReload, "c", model(&[]));
        repo
    }

    #[test]
    fn build_is_deterministic_and_bound_to_the_repo() {
        let repo = small_repo();
        let config = IndexConfig::default();
        let a = RepoIndex::build(&repo, &config);
        let b = RepoIndex::build(&repo, &config);
        assert_eq!(a, b);
        assert!(a.matches(&repo));
        assert_eq!(a.len(), repo.len());
        let mut other = small_repo();
        other.add_model(AttackFamily::SpectrePrimeProbe, "d", model(&[&["halt"]]));
        assert!(!a.matches(&other));
    }

    #[test]
    fn pivot_count_is_capped_by_distinct_sequences() {
        let repo = small_repo();
        let ix = RepoIndex::build(&repo, &IndexConfig { pivots: 64 });
        // The repo holds 4 distinct sequences; no more pivots than that.
        assert!(ix.pivot_count() <= 4);
        assert!(ix.pivot_count() >= 1);
    }

    #[test]
    fn empty_repo_indexes_cleanly() {
        let repo = ModelRepository::new();
        let ix = RepoIndex::build(&repo, &IndexConfig::default());
        assert!(ix.is_empty());
        assert_eq!(ix.pivot_count(), 0);
        assert!(ix.matches(&repo));
        // Querying an empty index is a no-op but must not panic.
        let q = ix.query(&model(&[&["ld"]]));
        assert_eq!(q.max_len, 1);
    }

    #[test]
    fn bounds_are_zero_on_an_enrolled_duplicate() {
        let repo = small_repo();
        let ix = RepoIndex::build(&repo, &IndexConfig::default());
        let target = model(&[&["ld", "clflush"], &["ld"]]);
        let q = ix.query(&target);
        assert_eq!(q.interval_bound(0), 0.0);
    }
}

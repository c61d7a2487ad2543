//! Sharded repository scans with a deterministic scatter-gather merge.
//!
//! A SCAGuard detection is a pure function of (target model, enrolled
//! repository, threshold): the best entry and its exact score
//! (DESIGN.md §15) — which makes the scan embarrassingly shardable. A
//! [`ShardedDetector`] splits the repository into contiguous index
//! ranges, gives each range its own [`Detector`] (with its own in-memory
//! [`RepoIndex`] slice), and classifies by:
//!
//! 1. **scatter** — every shard scans its slice ([`Shard::scan_best`]),
//!    reporting its exact local winner as a *global* `(index, distance)`
//!    pair;
//! 2. **merge** — [`ShardedDetector::merge`] picks the winner with the
//!    scan's own tie-break discipline: minimum distance, **later** global
//!    index on ties — the same rule `scan_target`, the `--jobs` pool, and
//!    the batch builder use, stated in a form independent of which shard
//!    answered first;
//! 3. **lookup** — [`ShardedDetector::detection_from`] names the merged
//!    winner's entry; nothing is rescanned.
//!
//! The composition is byte-identical to the unsharded scan at any shard
//! count: a tie candidate's DTW always runs to completion (the
//! early-abandon row minimum is a lower bound on the final distance, so
//! a distance equal to the cutoff never abandons), hence every shard's
//! winner is an exact distance no matter how the repository was cut.
//! The property test in `crates/core/tests/shard.rs` asserts this across
//! shard counts, repository sizes, empty shards, and fully-pruned shards.
//!
//! [`RepoIndex`]: crate::index::RepoIndex

use std::time::Instant;

use crate::cst::CstBbs;
use crate::detector::{
    Detection, Detector, EntryScore, InvalidThreshold, ModelRepository, RepoEntry,
};
use crate::engine::DeadlineExceeded;

/// One contiguous slice of a sharded repository: a detector over the
/// slice plus the slice's offset into the full repository, so local
/// entry indices translate to global ones.
#[derive(Debug, Clone)]
pub struct Shard {
    detector: Detector,
    offset: usize,
}

impl Shard {
    /// The detector over this shard's slice.
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// This shard's first entry's index in the full repository.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Number of entries in this shard (empty shards are legal: a
    /// repository smaller than the shard count leaves trailing shards
    /// with nothing to scan).
    pub fn len(&self) -> usize {
        self.detector.repository().len()
    }

    /// Whether this shard holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Phase 0+1 over this shard's slice: the exact local winner as a
    /// **global** `(index, distance)` pair, or `None` for an empty
    /// shard. Feed the per-shard results to [`ShardedDetector::merge`].
    ///
    /// # Errors
    ///
    /// Returns [`DeadlineExceeded`] when `deadline` passes mid-scan.
    pub fn scan_best(
        &self,
        target: &CstBbs,
        deadline: Option<Instant>,
    ) -> Result<Option<(usize, f64)>, DeadlineExceeded> {
        self.scan_best_seeded(target, None, deadline)
    }

    /// [`Shard::scan_best`] with a pre-scan cutoff seed (a **global**
    /// `(index, exact distance)` pair; see
    /// [`Detector::scan_best_seeded`]). A seed owned by another shard is
    /// ignored — only the owning shard may start from it, because a
    /// shard's winner must remain an exact distance of one of *its*
    /// entries for [`ShardedDetector::merge`] to stay correct.
    ///
    /// # Errors
    ///
    /// Returns [`DeadlineExceeded`] when `deadline` passes mid-scan.
    pub fn scan_best_seeded(
        &self,
        target: &CstBbs,
        seed: Option<(usize, f64)>,
        deadline: Option<Instant>,
    ) -> Result<Option<(usize, f64)>, DeadlineExceeded> {
        let local = seed.and_then(|(i, d)| {
            i.checked_sub(self.offset)
                .filter(|&l| l < self.len())
                .map(|l| (l, d))
        });
        Ok(self
            .detector
            .scan_best_seeded(target, local, deadline)?
            .map(|(i, d)| (self.offset + i, d)))
    }
}

/// A repository split into contiguous shards, classified by deterministic
/// scatter-gather (see the module docs).
#[derive(Debug)]
pub struct ShardedDetector {
    shards: Vec<Shard>,
    threshold: f64,
    len: usize,
}

impl ShardedDetector {
    /// Split `repo` into `shards` contiguous slices (`shards` is clamped
    /// to at least 1) and build a per-shard [`Detector`], each with a
    /// freshly built in-memory index over its slice. Shard `s` owns
    /// entries `[s * ceil(n / shards), (s + 1) * ceil(n / shards))`
    /// clipped to `n`; trailing shards may be empty.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidThreshold`] when `threshold` is outside `[0, 1]`.
    pub fn new(
        repo: ModelRepository,
        threshold: f64,
        shards: usize,
    ) -> Result<ShardedDetector, InvalidThreshold> {
        let shards = shards.max(1);
        let n = repo.len();
        let chunk = n.div_ceil(shards).max(1);
        let mut out = Vec::with_capacity(shards);
        for s in 0..shards {
            let lo = (s * chunk).min(n);
            let hi = ((s + 1) * chunk).min(n);
            let mut slice = ModelRepository::new();
            slice.extend(repo.entries()[lo..hi].iter().cloned());
            let mut detector = Detector::new(slice, threshold)?;
            detector
                .set_index(detector.build_index())
                .expect("a freshly built index matches its repository");
            out.push(Shard {
                detector,
                offset: lo,
            });
        }
        Ok(ShardedDetector {
            shards: out,
            threshold,
            len: n,
        })
    }

    /// Wrap an existing detector as a single shard, preserving whatever
    /// index it already carries (e.g. a loaded sidecar) — the one-shard
    /// sharded detector behaves exactly like the detector itself.
    pub fn from_detector(detector: Detector) -> ShardedDetector {
        let threshold = detector.threshold();
        let len = detector.repository().len();
        ShardedDetector {
            shards: vec![Shard {
                detector,
                offset: 0,
            }],
            threshold,
            len,
        }
    }

    /// The shards, in repository order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Number of shards (at least 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the full repository is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The detection threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Merge per-shard winners (global `(index, distance)` pairs from
    /// [`Shard::scan_best`], in any order) deterministically: minimum
    /// distance, **later** global index on ties — the exact rule the
    /// unsharded scan applies, so the merged winner is the unsharded
    /// winner regardless of shard count or answer order.
    pub fn merge(per_shard: &[Option<(usize, f64)>]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for &candidate in per_shard {
            if let Some((i, d)) = candidate {
                if best.is_none_or(|(bi, bd)| d < bd || (d == bd && i > bi)) {
                    best = Some((i, d));
                }
            }
        }
        best
    }

    /// The repository entry at a global index.
    ///
    /// # Panics
    ///
    /// Panics when `global` is not below [`ShardedDetector::len`].
    pub(crate) fn entry(&self, global: usize) -> &RepoEntry {
        let shard = &self.shards[self.shards.partition_point(|s| s.offset <= global) - 1];
        &shard.detector.repository().entries()[global - shard.offset]
    }

    /// The detection for a merged winner (the result of
    /// [`ShardedDetector::merge`]): a lookup of the winning entry, no
    /// scan. `None` means the repository is empty and the detection is
    /// benign.
    pub fn detection_from(&self, merged: Option<(usize, f64)>) -> Detection {
        debug_assert!(merged.is_some() || self.len == 0);
        Detection {
            best: merged.map(|(i, d)| EntryScore::at(i, self.entry(i), d)),
            threshold: self.threshold,
        }
    }

    /// Classify a prebuilt target model: scatter over every shard (here
    /// serially — a serving layer runs the scatter on its own pools),
    /// merge, look up. Byte-identical to an unsharded
    /// [`Detector::classify_model`] over the same repository.
    pub fn classify_model(&self, target: &CstBbs) -> Detection {
        let per_shard: Vec<Option<(usize, f64)>> = self
            .shards
            .iter()
            .map(|s| s.scan_best(target, None).expect("no deadline was given"))
            .collect();
        self.detection_from(Self::merge(&per_shard))
    }

    /// Scatter-and-merge only: every shard scans its slice with the
    /// optional seed routed to its owning shard, and the winners merge
    /// under the scan's own tie rule. Bitwise identical to an unseeded
    /// scatter (see [`Detector::scan_best_seeded`] for why); this is the
    /// per-increment step of a streaming session, which keeps the
    /// previous increment's winner as the seed.
    ///
    /// # Errors
    ///
    /// Returns [`DeadlineExceeded`] when `deadline` passes mid-scan.
    pub fn scan_best_seeded(
        &self,
        target: &CstBbs,
        seed: Option<(usize, f64)>,
        deadline: Option<Instant>,
    ) -> Result<Option<(usize, f64)>, DeadlineExceeded> {
        let mut per_shard = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            per_shard.push(shard.scan_best_seeded(target, seed, deadline)?);
        }
        Ok(Self::merge(&per_shard))
    }

    /// [`ShardedDetector::classify_model`] under a wall-clock deadline,
    /// checked before every entry of every shard's scan.
    ///
    /// # Errors
    ///
    /// Returns [`DeadlineExceeded`] when `deadline` passes mid-scan.
    pub fn classify_model_deadline(
        &self,
        target: &CstBbs,
        deadline: Instant,
    ) -> Result<Detection, DeadlineExceeded> {
        let mut per_shard = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            per_shard.push(shard.scan_best(target, Some(deadline))?);
        }
        Ok(self.detection_from(Self::merge(&per_shard)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cst::{Cst, CstStep};
    use crate::detector::detection_json;
    use sca_attacks::AttackFamily;

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

    fn repo(n: usize) -> ModelRepository {
        let mut repo = ModelRepository::new();
        for i in 0..n {
            let family = AttackFamily::ALL[i % AttackFamily::ALL.len()];
            repo.add_model(
                family,
                format!("m{i:02}"),
                dummy_model(i % 6 + 1, i as u64 % 2),
            );
        }
        repo
    }

    #[test]
    fn shard_layout_is_contiguous_and_complete() {
        for n in [0usize, 1, 4, 5, 9] {
            for shards in [1usize, 2, 4, 7] {
                let sd = ShardedDetector::new(repo(n), 0.2, shards).unwrap();
                assert_eq!(sd.shard_count(), shards);
                assert_eq!(sd.len(), n);
                let mut next = 0;
                for shard in sd.shards() {
                    assert_eq!(shard.offset(), next);
                    next += shard.len();
                }
                assert_eq!(next, n, "shards must cover the repository exactly");
            }
        }
    }

    #[test]
    fn sharded_detection_matches_unsharded() {
        for n in [0usize, 1, 3, 8] {
            let unsharded = Detector::new(repo(n), 0.2).unwrap();
            for shards in [1usize, 2, 4, 7] {
                let sd = ShardedDetector::new(repo(n), 0.2, shards).unwrap();
                for (t, marker) in [(1usize, 0u64), (4, 1), (9, 0)] {
                    let target = dummy_model(t, marker);
                    let want = detection_json("t", &unsharded.classify_model(&target)).to_string();
                    let got = detection_json("t", &sd.classify_model(&target)).to_string();
                    assert_eq!(want, got, "n={n} shards={shards} t={t} marker={marker}");
                }
            }
        }
    }

    #[test]
    fn merge_prefers_min_distance_then_later_index() {
        assert_eq!(ShardedDetector::merge(&[]), None);
        assert_eq!(ShardedDetector::merge(&[None, None]), None);
        assert_eq!(
            ShardedDetector::merge(&[Some((0, 2.0)), None, Some((5, 1.0))]),
            Some((5, 1.0))
        );
        // Ties go to the later global index, in any answer order.
        assert_eq!(
            ShardedDetector::merge(&[Some((3, 1.0)), Some((7, 1.0))]),
            Some((7, 1.0))
        );
        assert_eq!(
            ShardedDetector::merge(&[Some((7, 1.0)), Some((3, 1.0))]),
            Some((7, 1.0))
        );
    }

    #[test]
    fn single_shard_wrap_preserves_the_detector() {
        let mut det = Detector::new(repo(5), 0.2).unwrap();
        det.set_index(det.build_index()).unwrap();
        let want = detection_json("t", &det.classify_model(&dummy_model(3, 0))).to_string();
        let sd = ShardedDetector::from_detector(det);
        assert_eq!(sd.shard_count(), 1);
        assert_eq!(sd.len(), 5);
        let got = detection_json("t", &sd.classify_model(&dummy_model(3, 0))).to_string();
        assert_eq!(want, got);
    }

    #[test]
    fn deadline_aborts_or_matches() {
        let sd = ShardedDetector::new(repo(6), 0.2, 3).unwrap();
        let target = dummy_model(4, 0);
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let timed = sd.classify_model_deadline(&target, far).expect("in time");
        assert_eq!(sd.classify_model(&target), timed);
        let past = Instant::now() - std::time::Duration::from_millis(1);
        assert_eq!(
            sd.classify_model_deadline(&target, past).err(),
            Some(DeadlineExceeded)
        );
    }
}

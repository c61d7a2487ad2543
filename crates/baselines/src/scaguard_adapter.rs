//! The SCAGuard approach behind the common [`AttackDetector`] interface.

use std::sync::Arc;

use sca_attacks::{Label, Sample};
use scaguard::{Detector, ModelBuilder, ModelRepository, ModelingConfig, ScanRequest};

use crate::detector::{AttackDetector, DetectError};

/// SCAGuard as an [`AttackDetector`].
///
/// Training expects the *PoC* samples the defender knows (the paper uses
/// one PoC per known attack type); each is modeled once into the
/// repository. Classification models the target and compares by DTW
/// similarity. All modeling goes through a shared [`ModelBuilder`], so
/// clones of the detector (and threshold re-trainings) reuse every model
/// already built.
#[derive(Debug, Clone)]
pub struct ScaGuardDetector {
    threshold: f64,
    builder: Arc<ModelBuilder>,
    detector: Option<Detector>,
}

impl ScaGuardDetector {
    /// A detector with the paper's default threshold (45%).
    pub fn new(config: ModelingConfig) -> ScaGuardDetector {
        ScaGuardDetector::with_threshold(config, Detector::DEFAULT_THRESHOLD)
    }

    /// A detector with an explicit similarity threshold.
    pub fn with_threshold(config: ModelingConfig, threshold: f64) -> ScaGuardDetector {
        ScaGuardDetector {
            threshold,
            builder: Arc::new(ModelBuilder::new(&config)),
            detector: None,
        }
    }

    /// The underlying similarity detector, once trained.
    pub fn inner(&self) -> Option<&Detector> {
        self.detector.as_ref()
    }

    /// Change the threshold (keeps the trained repository).
    ///
    /// # Errors
    ///
    /// Rejects thresholds outside `[0, 1]` and leaves the detector
    /// unchanged.
    pub fn set_threshold(&mut self, threshold: f64) -> Result<(), DetectError> {
        match self.detector.take() {
            Some(d) => {
                let repo = d.repository().clone();
                match Detector::new(repo, threshold) {
                    Ok(next) => self.detector = Some(next),
                    Err(e) => {
                        // Keep the previous detector live on a bad input.
                        self.detector = Some(d);
                        return Err(e.into());
                    }
                }
            }
            None => {
                if !(0.0..=1.0).contains(&threshold) {
                    return Err(scaguard::InvalidThreshold(threshold).into());
                }
            }
        }
        self.threshold = threshold;
        Ok(())
    }
}

impl AttackDetector for ScaGuardDetector {
    fn name(&self) -> &str {
        "SCAGuard"
    }

    fn train(&mut self, samples: &[&Sample]) -> Result<(), DetectError> {
        let mut repo = ModelRepository::new();
        for s in samples {
            if let Label::Attack(family) = s.label {
                repo.add_poc_with(family, &s.program, &s.victim, &self.builder)?;
            }
        }
        self.detector = Some(Detector::new(repo, self.threshold)?);
        Ok(())
    }

    fn classify(&self, sample: &Sample) -> Result<Label, DetectError> {
        let detector = self.detector.as_ref().ok_or(DetectError::NotTrained)?;
        let model = self.builder.build_cst(&sample.program, &sample.victim)?;
        let detection = detector
            .scan(&model, &ScanRequest::default())
            .expect("no deadline was given");
        Ok(match detection.family() {
            Some(f) => Label::Attack(f),
            None => Label::Benign,
        })
    }

    fn classify_batch(&self, samples: &[&Sample], jobs: usize) -> Result<Vec<Label>, DetectError> {
        let detector = self.detector.as_ref().ok_or(DetectError::NotTrained)?;
        // Model in parallel through the shared builder (modeling is pure
        // and dominates the cost), then hand the batch to the similarity
        // engine's worker pool.
        let targets: Vec<_> = samples.iter().map(|s| (&s.program, &s.victim)).collect();
        // First error in sample order, as a serial loop would report.
        let mut built = Vec::with_capacity(samples.len());
        for m in self.builder.build_batch_cst_jobs(&targets, jobs) {
            built.push((*m?).clone());
        }
        Ok(detector
            .classify_batch(&built, jobs)
            .into_iter()
            .map(|det| match det.family() {
                Some(f) => Label::Attack(f),
                None => Label::Benign,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sca_attacks::poc::{self, PocParams};
    use sca_attacks::AttackFamily;

    #[test]
    fn untrained_detector_errors() {
        let d = ScaGuardDetector::new(ModelingConfig::default());
        let s = poc::flush_reload_iaik(&PocParams::default());
        assert!(matches!(d.classify(&s), Err(DetectError::NotTrained)));
    }

    #[test]
    fn detects_another_implementation_of_known_attack() {
        let params = PocParams::default();
        let mut d = ScaGuardDetector::new(ModelingConfig::default());
        let pocs: Vec<Sample> = AttackFamily::ALL
            .iter()
            .map(|&f| poc::representative(f, &params))
            .collect();
        let refs: Vec<&Sample> = pocs.iter().collect();
        d.train(&refs).expect("train");
        // Mastik FR was NOT used for modeling; it must still classify FR.
        let target = poc::flush_reload_mastik(&params);
        let label = d.classify(&target).expect("classify");
        assert_eq!(label, Label::Attack(AttackFamily::FlushReload));
    }

    #[test]
    fn benign_programs_mostly_classify_benign() {
        let params = PocParams::default();
        let mut d = ScaGuardDetector::new(ModelingConfig::default());
        let pocs: Vec<Sample> = AttackFamily::ALL
            .iter()
            .map(|&f| poc::representative(f, &params))
            .collect();
        let refs: Vec<&Sample> = pocs.iter().collect();
        d.train(&refs).expect("train");
        // Benign programs sit close to the threshold by design (the paper
        // reports ~3% false positives); assert the rate, not perfection.
        let mut false_alarms = 0;
        for seed in 0..8 {
            let benign = sca_attacks::benign::generate(sca_attacks::benign::Kind::Leetcode, seed);
            if d.classify(&benign).expect("classify") != Label::Benign {
                false_alarms += 1;
            }
        }
        assert!(false_alarms <= 1, "{false_alarms}/8 benign misflagged");
    }
}

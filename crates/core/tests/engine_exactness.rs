//! Acceptance test for the similarity engine: on the full PoC-vs-PoC
//! cross-matrix (every built-in PoC modeled and compared against every
//! other, both through the detector and through the engine directly) the
//! optimized path must reproduce the naive DTW reference **bitwise**.

use sca_attacks::poc::{self, PocParams};
use sca_attacks::AttackFamily;
use scaguard::{
    build_model, similarity_score, CstBbs, Detector, ModelRepository, ModelingConfig, ScanRequest,
    SimilarityEngine,
};

/// Model every built-in PoC (the repository representatives plus the
/// held-out implementations) once.
fn poc_models() -> Vec<(String, CstBbs)> {
    let params = PocParams::default();
    let cfg = ModelingConfig::default();
    let mut samples: Vec<sca_attacks::Sample> = AttackFamily::ALL
        .iter()
        .map(|&f| poc::representative(f, &params))
        .collect();
    samples.push(poc::flush_reload_mastik(&params));
    samples
        .into_iter()
        .map(|s| {
            let outcome = build_model(&s.program, &s.victim, &cfg).expect("model");
            (s.name().to_string(), outcome.cst_bbs)
        })
        .collect()
}

#[test]
fn engine_matches_naive_on_poc_cross_matrix() {
    let models = poc_models();
    let mut engine = SimilarityEngine::new();
    let prepared: Vec<_> = models.iter().map(|(_, m)| engine.prepare(m)).collect();
    for (i, (name_a, a)) in models.iter().enumerate() {
        for (j, (name_b, b)) in models.iter().enumerate() {
            let naive = similarity_score(a, b);
            let fast = 1.0 / (engine.distance(&prepared[i], &prepared[j]) + 1.0);
            assert_eq!(
                fast.to_bits(),
                naive.to_bits(),
                "{name_a} vs {name_b}: engine {fast} != naive {naive}"
            );
        }
    }
}

#[test]
fn detector_scores_match_naive_on_poc_cross_matrix() {
    let models = poc_models();
    let mut repo = ModelRepository::new();
    for (family, (name, model)) in AttackFamily::ALL.iter().zip(&models) {
        repo.add_model(*family, name.clone(), model.clone());
    }
    let detector =
        Detector::new(repo.clone(), Detector::DEFAULT_THRESHOLD).expect("threshold in range");
    for (name, target) in &models {
        let naive_best = repo
            .entries()
            .iter()
            .map(|e| similarity_score(target, &e.model))
            .fold(f64::NEG_INFINITY, f64::max);
        // The pruned scan's best is bitwise the naive best.
        let pruned = detector
            .scan(target, &ScanRequest::default())
            .expect("no deadline");
        assert_eq!(
            pruned.best_score().to_bits(),
            naive_best.to_bits(),
            "{name}: pruned best differs from naive"
        );
        // The full scan reproduces every per-entry score bitwise.
        let full = detector.classify_model_full(target);
        for (entry, repo_entry) in full.iter().zip(repo.entries()) {
            let naive = similarity_score(target, &repo_entry.model);
            assert_eq!(
                entry.score.to_bits(),
                naive.to_bits(),
                "{name} vs {}: full-scan score differs from naive",
                repo_entry.name
            );
        }
        // Parallel scan and batch agree with the serial pruned scan.
        let req = ScanRequest {
            jobs: 4,
            ..ScanRequest::default()
        };
        let jobs = detector.scan(target, &req).expect("no deadline");
        assert_eq!(jobs.best, pruned.best, "{name}: jobs best index differs");
        assert_eq!(jobs.best_score().to_bits(), pruned.best_score().to_bits());
    }
    let targets: Vec<CstBbs> = models.iter().map(|(_, m)| m.clone()).collect();
    let batch = detector.classify_batch(&targets, 3);
    for ((name, target), det) in models.iter().zip(&batch) {
        let serial = detector
            .scan(target, &ScanRequest::default())
            .expect("no deadline");
        assert_eq!(det.best, serial.best, "{name}: batch best index differs");
        assert_eq!(det.best_score().to_bits(), serial.best_score().to_bits());
        assert_eq!(det.family(), serial.family());
    }
}

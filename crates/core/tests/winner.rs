//! The compact detection contract (DESIGN.md §15): whatever path a scan
//! takes, the detection's winner is the argmin of the exhaustive
//! reference [`Detector::classify_model_full`] — minimum distance, the
//! later repository index on ties — and its score is that entry's score
//! bit for bit. The paths: every [`ScanRequest`] cell of linear and
//! indexed detectors × serial and 3 jobs × no seed and each entry's exact
//! distance as the seed × no deadline and a deadline an hour ahead, plus
//! batch, and a streaming session's `done` detection. A deadline already
//! past aborts the scan instead. The targets are modeled programs that
//! are in no repository: seeded mutants of every family and benign
//! programs. The repository enrolls each family's
//! representative twice, so whenever a representative wins, the tie rule
//! decides between its two copies.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sca_attacks::dataset::mutated_family;
use sca_attacks::mutate::MutationConfig;
use sca_attacks::poc::{self, PocParams};
use sca_attacks::{benign, AttackFamily, Sample};
use scaguard::similarity::model_distance;
use scaguard::stream::{StreamConfig, StreamSession};
use scaguard::{
    build_model, CstBbs, DeadlineExceeded, Detection, Detector, EntryScore, ModelRepository,
    ModelingConfig, ScanRequest,
};

/// Seed of the enrolled variants.
const ENROLL_SEED: u64 = 0x0e11_0001;
/// Seed of the target mutants, disjoint from the enrolled ones.
const TARGET_SEED: u64 = 0x7a26_e701;

/// Modeling with a step cap, so the debug-build test stays quick while
/// every model still has several blocks.
fn modeling() -> ModelingConfig {
    let mut cfg = ModelingConfig::default();
    cfg.cpu.max_steps = 3_000;
    cfg
}

fn model(sample: &Sample, cfg: &ModelingConfig) -> CstBbs {
    build_model(&sample.program, &sample.victim, cfg)
        .expect("model")
        .cst_bbs
}

/// Every representative, two enrolled variants per family, then a second
/// copy of every representative.
fn repository(cfg: &ModelingConfig) -> ModelRepository {
    let params = PocParams::default();
    let mut repo = ModelRepository::new();
    let reps: Vec<Sample> = AttackFamily::ALL
        .iter()
        .map(|&f| poc::representative(f, &params))
        .collect();
    for (family, rep) in AttackFamily::ALL.iter().zip(&reps) {
        repo.add_model(*family, rep.name(), model(rep, cfg));
    }
    for family in AttackFamily::ALL {
        for (i, s) in mutated_family(family, 2, ENROLL_SEED, &MutationConfig::default())
            .iter()
            .enumerate()
        {
            repo.add_model(
                family,
                format!("{}-var-{i}", family.abbrev()),
                model(s, cfg),
            );
        }
    }
    for (family, rep) in AttackFamily::ALL.iter().zip(&reps) {
        repo.add_model(*family, format!("{}-copy", rep.name()), model(rep, cfg));
    }
    repo
}

/// One mutant per family plus three benign programs.
fn target_samples() -> Vec<Sample> {
    let mut samples: Vec<Sample> = AttackFamily::ALL
        .iter()
        .flat_map(|&f| mutated_family(f, 1, TARGET_SEED, &MutationConfig::default()))
        .collect();
    samples.extend(benign::generate_mix(3, TARGET_SEED));
    samples
}

/// The reference winner: the argmin over the exhaustive scan. Scores fall
/// as distances grow, so the minimum distance is the maximum score; ties
/// go to the later index.
fn reference(detector: &Detector, target: &CstBbs) -> (EntryScore, usize) {
    let scores = detector.classify_model_full(target);
    let best = scores
        .iter()
        .fold(None::<&EntryScore>, |best, e| match best {
            Some(b) if b.score > e.score => Some(b),
            _ => Some(e),
        })
        .expect("a nonempty repository");
    let ties = scores.iter().filter(|e| e.score == best.score).count();
    (best.clone(), ties)
}

fn assert_winner(path: &str, got: &Detection, want: &EntryScore) {
    let best = got
        .best_entry()
        .unwrap_or_else(|| panic!("{path}: no winner"));
    assert_eq!(best.index, want.index, "{path}: winner index");
    assert_eq!(
        best.score.to_bits(),
        want.score.to_bits(),
        "{path}: winner score"
    );
    assert_eq!(best, want, "{path}: winner entry");
}

/// The linear and the indexed detector over one repository.
fn detectors(repo: &ModelRepository) -> [(&'static str, Detector); 2] {
    let linear = Detector::new(repo.clone(), Detector::DEFAULT_THRESHOLD).expect("threshold");
    let mut indexed = Detector::new(repo.clone(), Detector::DEFAULT_THRESHOLD).expect("threshold");
    indexed
        .set_index(indexed.build_index())
        .expect("a fresh index matches");
    [("linear", linear), ("indexed", indexed)]
}

#[test]
fn every_scan_path_reports_the_exhaustive_argmin() {
    let cfg = modeling();
    let repo = repository(&cfg);
    let detectors = detectors(&repo);
    let linear = &detectors[0].1;

    let targets: Vec<CstBbs> = target_samples().iter().map(|s| model(s, &cfg)).collect();
    let mut tied = 0;
    for (t, target) in targets.iter().enumerate() {
        let (want, ties) = reference(linear, target);
        if ties > 1 {
            tied += 1;
        }
        let seeds: Vec<Option<(usize, f64)>> = std::iter::once(None)
            .chain(
                repo.entries()
                    .iter()
                    .enumerate()
                    .map(|(i, e)| Some((i, model_distance(target, &e.model)))),
            )
            .collect();
        for (name, detector) in &detectors {
            for jobs in [1, 3] {
                for &seed in &seeds {
                    for deadline in [None, Some(Instant::now() + Duration::from_secs(3600))] {
                        let req = ScanRequest {
                            seed,
                            deadline,
                            jobs,
                        };
                        let got = detector.scan(target, &req).expect("an hour is enough");
                        assert_winner(&format!("target {t} {name} {req:?}"), &got, &want);
                    }
                }
                // A deadline already past aborts, serially and over workers.
                let past = ScanRequest {
                    deadline: Some(Instant::now() - Duration::from_millis(1)),
                    jobs,
                    ..ScanRequest::default()
                };
                assert_eq!(
                    detector.scan(target, &past),
                    Err(DeadlineExceeded),
                    "target {t} {name} jobs={jobs}"
                );
            }
        }
    }
    for (name, detector) in &detectors {
        for (t, det) in detector.classify_batch(&targets, 2).iter().enumerate() {
            assert_winner(
                &format!("target {t} {name} batch"),
                det,
                &reference(linear, &targets[t]).0,
            );
        }
    }
    assert!(
        tied > 0,
        "no target's winner was a duplicated entry, so the tie rule never ran"
    );
}

#[test]
fn a_streams_done_detection_is_the_exhaustive_argmin_of_its_prefix() {
    let cfg = modeling();
    let repo = repository(&cfg);
    let detectors = detectors(&repo);
    let samples = target_samples();
    // One attack mutant and one benign program, each over the linear and
    // the indexed detector.
    for sample in [&samples[0], &samples[AttackFamily::ALL.len()]] {
        for (name, detector) in &detectors {
            let mut session = StreamSession::begin(
                Arc::new(detector.clone()),
                &sample.program,
                &sample.victim,
                &cfg,
                &StreamConfig::default(),
            )
            .expect("a nonempty program");
            while !session.is_done() {
                session.push(None, None).expect("no deadline");
            }
            let done = session.detection(None).expect("no deadline");
            let prefix = session.modeler().model_cst();
            assert_winner(
                &format!("{} stream {name}", sample.name()),
                &done,
                &reference(&detectors[0].1, &prefix).0,
            );
        }
    }
}

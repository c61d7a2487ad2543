//! Property tests for the repository metric index: every bound a scan
//! consults is admissible (never exceeds the exact DTW distance), an
//! index-pruned scan renders detections byte-identical to the plain
//! linear scan — serially and with `--jobs`-style worker pools — and an
//! exact tie goes to the later entry whichever bounds ran. Randomized
//! inputs come from seeded [`SmallRng`] loops so runs are deterministic.

use sca_attacks::AttackFamily;
use sca_cache::CacheState;
use sca_isa::rng::SmallRng;
use sca_isa::NormInst;
use scaguard::engine::{lb_interval, BagBound};
use scaguard::persist::{index_from_str, index_to_string};
use scaguard::similarity::model_distance;
use scaguard::{
    detection_json, Cst, CstBbs, CstStep, Detection, Detector, IndexConfig, ModelRepository,
    PreparedModel, RepoIndex, ScanRequest, SimilarityEngine,
};

const CASES: usize = 64;

fn arb_norm_inst(rng: &mut SmallRng) -> NormInst {
    match rng.gen_range(0..7u32) {
        0 => NormInst::binary("mov", sca_isa::NormOperand::Reg, sca_isa::NormOperand::Imm),
        1 => NormInst::binary("ld", sca_isa::NormOperand::Reg, sca_isa::NormOperand::Mem),
        2 => NormInst::binary("st", sca_isa::NormOperand::Mem, sca_isa::NormOperand::Reg),
        3 => NormInst::binary("add", sca_isa::NormOperand::Reg, sca_isa::NormOperand::Imm),
        4 => NormInst::unary("clflush", sca_isa::NormOperand::Mem),
        5 => NormInst::unary("rdtscp", sca_isa::NormOperand::Reg),
        _ => NormInst::nullary("nop"),
    }
}

fn unit_half(rng: &mut SmallRng) -> f64 {
    rng.gen_range(0..=500_000u64) as f64 / 1_000_000.0
}

fn arb_step(rng: &mut SmallRng) -> CstStep {
    let norm_insts = (0..rng.gen_range(0..12usize))
        .map(|_| arb_norm_inst(rng))
        .collect();
    let (ao, io) = (unit_half(rng), unit_half(rng));
    CstStep {
        bb_addr: 0x40_0000,
        norm_insts,
        cst: Cst {
            before: CacheState::full_other(),
            after: CacheState::new(ao, io),
        },
        first_seen: rng.gen_range(0u64..10_000),
    }
}

fn arb_model(rng: &mut SmallRng) -> CstBbs {
    let steps = (0..rng.gen_range(0..10usize))
        .map(|_| arb_step(rng))
        .collect();
    CstBbs::new(steps)
}

/// A random repository of `n` models, families cycling over the four
/// attack types.
fn arb_repo(rng: &mut SmallRng, n: usize) -> ModelRepository {
    let mut repo = ModelRepository::new();
    for i in 0..n {
        let family = AttackFamily::ALL[i % AttackFamily::ALL.len()];
        repo.add_model(family, format!("m{i:03}"), arb_model(rng));
    }
    repo
}

/// Deterministic per-test RNG seeds.
fn seed(tag: u64) -> u64 {
    0x1dec_5000 ^ tag
}

/// Every bound a scan consults — the interval envelope, the pivot sort
/// key and the bag bound — is a true lower bound on the exact DTW
/// distance, on randomized model pairs; the bag bound with no slack at
/// all. An inadmissible bound would let the scan skip the true best
/// match.
#[test]
fn scan_bounds_never_exceed_the_exact_distance() {
    let mut rng = SmallRng::seed_from_u64(seed(1));
    for case in 0..CASES {
        let repo = arb_repo(&mut rng, 1 + case % 8);
        let index = RepoIndex::build(&repo, &IndexConfig::default());
        let target = arb_model(&mut rng);
        let query = index.query(&target);
        let mut engine = SimilarityEngine::new();
        let prepared: Vec<PreparedModel> = repo
            .entries()
            .iter()
            .map(|e| engine.prepare(&e.model))
            .collect();
        let mut bags = BagBound::new(&engine, &prepared);
        let pt = engine.prepare(&target);
        bags.begin(&engine, &pt);
        for (i, pe) in prepared.iter().enumerate() {
            let exact = engine.distance(&pt, pe);
            let env = lb_interval(&pt, pe);
            assert!(
                env <= exact + 1e-9,
                "case {case} entry {i}: lb_interval {env} > exact {exact}"
            );
            let iv = query.interval_bound(i);
            assert!(
                iv <= exact + 1e-9,
                "case {case} entry {i}: interval_bound {iv} > exact {exact}"
            );
            let bag = bags.bound(i);
            assert!(
                bag <= exact,
                "case {case} entry {i}: bag bound {bag} > exact {exact}"
            );
        }
    }
}

/// An exact tie at a nonzero distance: an entry enrolled twice, close to
/// the target, scanned unseeded and seeded with the tie distance itself
/// (as either copy), linear and indexed, serially and over workers. The
/// later copy wins every time, so no bound may skip an entry whose
/// distance equals the cutoff.
#[test]
fn an_exact_tie_goes_to_the_later_copy() {
    let mut rng = SmallRng::seed_from_u64(seed(4));
    for case in 0..CASES / 4 {
        let target = CstBbs::new((0..1 + case % 6).map(|_| arb_step(&mut rng)).collect());
        // The target with every block's cache transition replaced: the
        // same blocks, a small nonzero distance.
        let near: CstBbs = target
            .steps()
            .iter()
            .map(|s| CstStep {
                cst: Cst {
                    before: CacheState::full_other(),
                    after: CacheState::new(0.49, 0.49),
                },
                ..s.clone()
            })
            .collect();
        let mut repo = arb_repo(&mut rng, 3);
        repo.add_model(AttackFamily::FlushReload, "near", near.clone());
        repo.add_model(AttackFamily::PrimeProbe, "other", arb_model(&mut rng));
        repo.add_model(AttackFamily::FlushReload, "near-copy", near.clone());
        let (first, later) = (3, 5);
        let tie = model_distance(&target, &near);
        assert!(
            tie > 0.0,
            "case {case}: the tie must be at a nonzero distance"
        );
        let linear = Detector::new(repo.clone(), 0.45).expect("threshold");
        let full = linear.classify_model_full(&target);
        assert!(
            full.iter().all(|e| e.score <= full[later].score),
            "case {case}: the copies must be the closest entries"
        );
        let mut indexed = Detector::new(repo.clone(), 0.45).expect("threshold");
        indexed
            .set_index(RepoIndex::build(&repo, &IndexConfig::default()))
            .expect("fresh index matches");
        for (label, detector) in [("linear", &linear), ("indexed", &indexed)] {
            for seed in [None, Some((first, tie)), Some((later, tie))] {
                for jobs in [1, 3] {
                    let req = ScanRequest {
                        seed,
                        jobs,
                        ..ScanRequest::default()
                    };
                    let best = detector.scan(&target, &req).expect("no deadline");
                    let best = best.best_entry().expect("a winner");
                    let at = format!("case {case} {label} seed {seed:?} jobs {jobs}");
                    assert_eq!(best.index, later, "{at}");
                    assert_eq!(best.score.to_bits(), full[later].score.to_bits(), "{at}");
                }
            }
        }
    }
}

/// Index-pruned detections are byte-identical to the linear scan —
/// same verdict, same per-entry scores, same JSON — on random repos of
/// many sizes, for random targets and for enrolled duplicates, both
/// serially and under a worker pool.
#[test]
fn indexed_detections_are_byte_identical_to_linear() {
    fn scan(detector: &Detector, target: &CstBbs, jobs: usize) -> Detection {
        let req = ScanRequest {
            jobs,
            ..ScanRequest::default()
        };
        detector.scan(target, &req).expect("no deadline")
    }
    let mut rng = SmallRng::seed_from_u64(seed(2));
    for n in [0usize, 1, 2, 3, 5, 9, 16] {
        let repo = arb_repo(&mut rng, n);
        let linear = Detector::new(repo.clone(), 0.45).expect("threshold");
        let mut indexed = Detector::new(repo.clone(), 0.45).expect("threshold");
        indexed
            .set_index(RepoIndex::build(&repo, &IndexConfig::default()))
            .expect("fresh index matches");
        let mut targets: Vec<CstBbs> = (0..4).map(|_| arb_model(&mut rng)).collect();
        if let Some(entry) = repo.entries().first() {
            // A query already in the database: distance zero, the
            // strongest pruning case.
            targets.push(entry.model.clone());
        }
        for (t, target) in targets.iter().enumerate() {
            let want = detection_json("t", &scan(&linear, target, 1)).to_string();
            let got = detection_json("t", &scan(&indexed, target, 1)).to_string();
            assert_eq!(want, got, "n={n} target {t}: serial indexed differs");
            for jobs in [2usize, 3] {
                let got = detection_json("t", &scan(&indexed, target, jobs)).to_string();
                assert_eq!(want, got, "n={n} target {t} jobs={jobs}: parallel differs");
            }
        }
        let serial: Vec<String> = targets
            .iter()
            .map(|t| detection_json("t", &scan(&linear, t, 1)).to_string())
            .collect();
        let batch: Vec<String> = indexed
            .classify_batch(&targets, 3)
            .iter()
            .map(|d| detection_json("t", d).to_string())
            .collect();
        assert_eq!(serial, batch, "n={n}: indexed classify_batch differs");
    }
}

/// Index construction is deterministic and the persisted form is
/// byte-stable through arbitrary save/load cycles, on random repos.
#[test]
fn index_build_and_persistence_are_deterministic() {
    let mut rng = SmallRng::seed_from_u64(seed(3));
    for n in [0usize, 1, 4, 11] {
        let repo = arb_repo(&mut rng, n);
        let a = RepoIndex::build(&repo, &IndexConfig::default());
        let b = RepoIndex::build(&repo, &IndexConfig::default());
        let text = index_to_string(&a);
        assert_eq!(
            text,
            index_to_string(&b),
            "n={n}: build is not deterministic"
        );
        let loaded = index_from_str(&text).expect("parse");
        assert!(loaded.matches(&repo), "n={n}: loaded index rejected");
        assert_eq!(
            index_to_string(&loaded),
            text,
            "n={n}: save/load/save not byte-stable"
        );
    }
}

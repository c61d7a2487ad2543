//! Property-based tests for the similarity machinery: metric properties of
//! Levenshtein, DTW, and the CST distance, plus score-range guarantees.
//! Randomized inputs come from seeded [`SmallRng`] loops so runs are
//! deterministic.

use sca_cache::CacheState;
use sca_isa::rng::SmallRng;
use sca_isa::NormInst;
use scaguard::engine::{lb_interval, BagBound};
use scaguard::similarity::{csp_distance, instruction_distance};
use scaguard::{
    cst_distance, dtw, levenshtein, similarity_score, Bounded, Cst, CstBbs, CstStep, PreparedModel,
    SimilarityEngine,
};

const CASES: usize = 128;

fn arb_norm_inst(rng: &mut SmallRng) -> NormInst {
    letter(rng.gen_range(0..7u32))
}

/// One of seven normalized instructions, by number.
fn letter(k: u32) -> NormInst {
    match k {
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

fn arb_steps(rng: &mut SmallRng, lo: usize, hi: usize) -> Vec<CstStep> {
    (0..rng.gen_range(lo..hi)).map(|_| arb_step(rng)).collect()
}

fn arb_model(rng: &mut SmallRng) -> CstBbs {
    CstBbs::new(arb_steps(rng, 0, 10))
}

/// Levenshtein is a metric on sequences: identity, symmetry, triangle
/// inequality, and the standard bounds.
#[test]
fn levenshtein_is_a_metric() {
    let mut rng = SmallRng::seed_from_u64(0xc02_e001);
    let seq = |rng: &mut SmallRng| -> Vec<u8> {
        (0..rng.gen_range(0..20usize))
            .map(|_| rng.gen_range(0u8..5))
            .collect()
    };
    for _ in 0..CASES {
        let (a, b, c) = (seq(&mut rng), seq(&mut rng), seq(&mut rng));
        assert_eq!(levenshtein(&a, &a), 0);
        assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        let d = levenshtein(&a, &b);
        assert!(d >= a.len().abs_diff(b.len()));
        assert!(d <= a.len().max(b.len()));
        if d == 0 {
            assert_eq!(a, b);
        }
    }
}

/// Each distance component and the combined distance stay in [0, 1]
/// and are symmetric with zero self-distance.
#[test]
fn step_distances_are_bounded_symmetric() {
    let mut rng = SmallRng::seed_from_u64(0xc02_e002);
    for _ in 0..CASES {
        let x = arb_step(&mut rng);
        let y = arb_step(&mut rng);
        for d in [
            instruction_distance(&x, &y),
            csp_distance(&x, &y),
            cst_distance(&x, &y),
        ] {
            assert!((0.0..=1.0).contains(&d), "distance {d} out of range");
        }
        assert!((cst_distance(&x, &y) - cst_distance(&y, &x)).abs() < 1e-12);
        assert_eq!(cst_distance(&x, &x), 0.0);
    }
}

/// DTW under the CST distance: zero on identity, symmetric,
/// non-negative, and bounded by the all-pairs worst case.
#[test]
fn dtw_properties() {
    let mut rng = SmallRng::seed_from_u64(0xc02_e003);
    for _ in 0..CASES {
        let a = arb_model(&mut rng);
        let b = arb_model(&mut rng);
        let dab = dtw(a.steps(), b.steps(), cst_distance);
        let dba = dtw(b.steps(), a.steps(), cst_distance);
        assert!(dab >= 0.0);
        assert!((dab - dba).abs() < 1e-9, "DTW must be symmetric");
        assert_eq!(dtw(a.steps(), a.steps(), cst_distance), 0.0);
        // path length is at most len(a)+len(b), each step costing <= 1
        assert!(dab <= (a.len() + b.len()) as f64 + 1e-9);
    }
}

/// Similarity scores live in [0, 1], reach 1 exactly on self, and are
/// symmetric.
#[test]
fn similarity_score_properties() {
    let mut rng = SmallRng::seed_from_u64(0xc02_e004);
    for _ in 0..CASES {
        let a = arb_model(&mut rng);
        let b = arb_model(&mut rng);
        let s = similarity_score(&a, &b);
        assert!((0.0..=1.0).contains(&s));
        assert_eq!(similarity_score(&a, &a), 1.0);
        assert!((s - similarity_score(&b, &a)).abs() < 1e-9);
    }
}

/// The optimized engine (interning + cached `D_IS`) returns **bitwise**
/// identical distances to the naive `dtw(a, b, cst_distance)` reference,
/// including the empty/singleton conventions, and one persistent engine
/// stays exact across many unrelated model pairs.
#[test]
fn engine_matches_naive_bitwise() {
    let mut rng = SmallRng::seed_from_u64(0xc02_e006);
    let mut engine = SimilarityEngine::new();
    for case in 0..CASES {
        // Sweep empty and singleton models into the mix deterministically.
        let a = match case % 8 {
            0 => CstBbs::default(),
            1 => CstBbs::new(arb_steps(&mut rng, 1, 2)),
            _ => arb_model(&mut rng),
        };
        let b = match case % 5 {
            0 => CstBbs::default(),
            1 => CstBbs::new(arb_steps(&mut rng, 1, 2)),
            _ => arb_model(&mut rng),
        };
        let naive = dtw(a.steps(), b.steps(), cst_distance);
        let (pa, pb) = (engine.prepare(&a), engine.prepare(&b));
        assert_eq!(
            engine.distance(&pa, &pb).to_bits(),
            naive.to_bits(),
            "case {case}: engine disagrees with the naive reference"
        );
    }
}

/// A bounded comparison either reproduces the exact distance bitwise or
/// abandons with a lower bound that (a) exceeds the cutoff and (b) never
/// exceeds the true distance; the cheap lower bounds stay admissible.
#[test]
fn bounded_distance_and_lower_bounds_are_sound() {
    let mut rng = SmallRng::seed_from_u64(0xc02_e007);
    let mut engine = SimilarityEngine::new();
    for case in 0..CASES {
        let a = arb_model(&mut rng);
        let b = arb_model(&mut rng);
        let naive = dtw(a.steps(), b.steps(), cst_distance);
        let (pa, pb) = (engine.prepare(&a), engine.prepare(&b));
        // Cutoffs below, at, and above the true distance.
        for cutoff in [naive * 0.5, naive, naive + 0.125, f64::INFINITY] {
            match engine.distance_bounded(&pa, &pb, cutoff) {
                Bounded::Exact(d) => assert_eq!(d.to_bits(), naive.to_bits()),
                Bounded::AtLeast(lb) => {
                    assert!(lb > cutoff, "case {case}: abandoned below the cutoff");
                    assert!(lb <= naive, "case {case}: bound {lb} above true {naive}");
                }
            }
        }
        // A cutoff at the exact distance must never abandon (tie rule).
        assert_eq!(
            engine.distance_bounded(&pa, &pb, naive),
            Bounded::Exact(naive)
        );
        assert!(lb_interval(&pa, &pb) <= naive);
        let mut bags = BagBound::new(&engine, std::slice::from_ref(&pb));
        bags.begin(&engine, &pa);
        assert!(bags.bound(0) <= naive);
    }
}

/// A random model over the letters `lo..hi` only, with empty blocks and
/// empty models in the mix.
fn model_over(rng: &mut SmallRng, lo: u32, hi: u32) -> CstBbs {
    let steps = (0..rng.gen_range(0..10usize))
        .map(|_| {
            let mut step = arb_step(rng);
            for inst in &mut step.norm_insts {
                *inst = letter(rng.gen_range(lo..hi));
            }
            step
        })
        .collect();
    CstBbs::new(steps)
}

/// The bag bound never exceeds the exact DTW distance, with no slack, on
/// seeded random repositories and targets: empty models and blocks, a
/// target identical to an entry, a target whose letters the repository
/// never uses, and a target that shares part of the alphabet.
#[test]
fn bag_bound_is_admissible_without_slack() {
    let mut rng = SmallRng::seed_from_u64(0xc02_e00b);
    for case in 0..CASES {
        // Letter windows: shared, disjoint, overlapping.
        let ((rlo, rhi), (tlo, thi)) = match case % 3 {
            0 => ((0, 7), (0, 7)),
            1 => ((0, 3), (3, 7)),
            _ => ((0, 5), (2, 7)),
        };
        let mut entries: Vec<CstBbs> = (0..1 + case % 6)
            .map(|_| model_over(&mut rng, rlo, rhi))
            .collect();
        entries.push(CstBbs::default());
        let mut engine = SimilarityEngine::new();
        let prepared: Vec<PreparedModel> = entries.iter().map(|m| engine.prepare(m)).collect();
        let mut bags = BagBound::new(&engine, &prepared);
        let targets = [
            model_over(&mut rng, tlo, thi),
            model_over(&mut rng, tlo, thi),
            CstBbs::default(),
            entries[0].clone(),
        ];
        for (t, target) in targets.iter().enumerate() {
            let pt = engine.prepare(target);
            bags.begin(&engine, &pt);
            for (i, pe) in prepared.iter().enumerate() {
                let exact = engine.distance(&pt, pe);
                let bound = bags.bound(i);
                assert!(
                    bound <= exact,
                    "case {case} target {t} entry {i}: bound {bound} > exact {exact}"
                );
            }
        }
        // A target identical to an entry prices every step at 0.
        assert_eq!(bags.bound(0), 0.0, "case {case}");
    }
}

/// Concatenating a common prefix to both sequences never increases the
/// DTW distance beyond the original (warping absorbs shared structure).
#[test]
fn shared_prefix_does_not_hurt() {
    let mut rng = SmallRng::seed_from_u64(0xc02_e005);
    for _ in 0..CASES {
        let prefix = arb_steps(&mut rng, 1, 4);
        let a = arb_steps(&mut rng, 1, 6);
        let b = arb_steps(&mut rng, 1, 6);
        let base = dtw(&a, &b, cst_distance);
        let mut pa = prefix.clone();
        pa.extend(a.clone());
        let mut pb = prefix;
        pb.extend(b.clone());
        let with_prefix = dtw(&pa, &pb, cst_distance);
        assert!(with_prefix <= base + 1e-9, "{with_prefix} > {base}");
    }
}

//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **distance** — the combined per-step distance vs instruction-only
//!    and cache-state-only variants;
//! 2. **dtw** — dynamic time warping vs naive lock-step alignment;
//! 3. **graph** — Algorithm 1's attack-relevant graph vs keeping every
//!    nonzero-HPC block;
//! 4. **policy** — sensitivity of the CST replay to the cache replacement
//!    policy.
//!
//! Each section prints the attack-vs-benign score separation the variant
//! achieves on a common evaluation set: higher attack scores and lower
//! benign scores mean a better detector.
//!
//! ```sh
//! cargo run --release -p sca-bench --bin ablations
//! ```

use sca_attacks::benign;
use sca_attacks::dataset::mutated_family;
use sca_attacks::layout::{prime_addr, LINE, LLC_SETS, MONITOR_SET_BASE, VICTIM_CONFLICT_BASE};
use sca_attacks::mutate::MutationConfig;
use sca_attacks::poc::{self, PocParams};
use sca_attacks::{AttackFamily, Sample};
use sca_cache::{CacheConfig, ReplacementPolicy};
use sca_cpu::{CpuConfig, Machine, Victim};
use sca_isa::{AluOp, Cond, MemRef, ProgramBuilder, Reg};
use scaguard::similarity::{csp_distance, instruction_distance};
use scaguard::{
    build_model, cst_distance, dtw, model_from_blocks, CstBbs, CstStep, ModelingConfig,
};

const N_PER_FAMILY: usize = 5;
const N_BENIGN: usize = 10;

/// Evaluation set: a few mutants per family plus benign programs, with the
/// four representative PoCs as the repository.
struct Fixture {
    repo: Vec<CstBbs>,
    attacks: Vec<CstBbs>,
    benign: Vec<CstBbs>,
}

fn build_fixture(config: &ModelingConfig) -> Fixture {
    let params = PocParams::default();
    let model = |s: &Sample| {
        build_model(&s.program, &s.victim, config)
            .expect("model")
            .cst_bbs
    };
    let repo = AttackFamily::ALL
        .iter()
        .map(|&f| model(&poc::representative(f, &params)))
        .collect();
    let mut attacks = Vec::new();
    for f in AttackFamily::ALL {
        for s in mutated_family(f, N_PER_FAMILY, 11, &MutationConfig::default()) {
            attacks.push(model(&s));
        }
    }
    let benign = benign::generate_mix(N_BENIGN, 12)
        .iter()
        .map(model)
        .collect();
    Fixture {
        repo,
        attacks,
        benign,
    }
}

/// Best similarity of `target` against the repository under `dist`,
/// computed as `1 / (1 + DTW)`.
fn best_score(
    fixture_repo: &[CstBbs],
    target: &CstBbs,
    dist: impl Fn(&CstStep, &CstStep) -> f64 + Copy,
) -> f64 {
    fixture_repo
        .iter()
        .map(|m| 1.0 / (1.0 + dtw(target.steps(), m.steps(), dist)))
        .fold(0.0, f64::max)
}

fn separation(fixture: &Fixture, score: impl Fn(&CstBbs) -> f64) -> (f64, f64, f64) {
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let attack: Vec<f64> = fixture.attacks.iter().map(&score).collect();
    let ben: Vec<f64> = fixture.benign.iter().map(&score).collect();
    let a_min = attack.iter().cloned().fold(f64::MAX, f64::min);
    let b_max = ben.iter().cloned().fold(0.0, f64::max);
    (mean(&attack), mean(&ben), a_min - b_max)
}

fn print_row(name: &str, (a, b, margin): (f64, f64, f64)) {
    println!(
        "  {name:<24} attacks {:.3}  benign {:.3}  worst-case margin {:+.3}",
        a, b, margin
    );
}

fn distance_ablation(fixture: &Fixture) {
    println!("\n== distance ablation: per-step CST distance components ==");
    print_row(
        "combined (paper)",
        separation(fixture, |t| best_score(&fixture.repo, t, cst_distance)),
    );
    print_row(
        "instructions only",
        separation(fixture, |t| {
            best_score(&fixture.repo, t, instruction_distance)
        }),
    );
    print_row(
        "cache states only",
        separation(fixture, |t| best_score(&fixture.repo, t, csp_distance)),
    );
}

/// Lock-step alignment: pair steps positionally, unmatched tail costs 1.
fn lockstep(a: &CstBbs, b: &CstBbs) -> f64 {
    let paired: f64 = a
        .steps()
        .iter()
        .zip(b.steps())
        .map(|(x, y)| cst_distance(x, y))
        .sum();
    paired + a.len().abs_diff(b.len()) as f64
}

fn dtw_ablation(fixture: &Fixture) {
    println!("\n== alignment ablation: DTW vs lock-step ==");
    print_row(
        "DTW (paper)",
        separation(fixture, |t| best_score(&fixture.repo, t, cst_distance)),
    );
    print_row(
        "lock-step",
        separation(fixture, |t| {
            fixture
                .repo
                .iter()
                .map(|m| 1.0 / (1.0 + lockstep(t, m)))
                .fold(0.0, f64::max)
        }),
    );
}

fn graph_ablation() {
    println!("\n== graph ablation: Algorithm 1 vs all nonzero-HPC blocks ==");
    let config = ModelingConfig::default();
    let params = PocParams::default();
    let naive_model = |s: &Sample| {
        let out = build_model(&s.program, &s.victim, &config).expect("model");
        model_from_blocks(
            &s.program,
            &out.cfg,
            &out.trace,
            &out.potential_bbs,
            &config.cst_cache,
        )
    };
    let algo_model = |s: &Sample| {
        build_model(&s.program, &s.victim, &config)
            .expect("model")
            .cst_bbs
    };

    type Modeler<'a> = &'a dyn Fn(&Sample) -> CstBbs;
    let variants: [(&str, Modeler); 2] = [
        ("Algorithm 1 (paper)", &algo_model),
        ("all potential BBs", &naive_model),
    ];
    for (name, model) in variants {
        let repo: Vec<CstBbs> = AttackFamily::ALL
            .iter()
            .map(|&f| model(&poc::representative(f, &params)))
            .collect();
        let mut attacks = Vec::new();
        for f in AttackFamily::ALL {
            for s in mutated_family(f, N_PER_FAMILY, 11, &MutationConfig::default()) {
                attacks.push(model(&s));
            }
        }
        let ben: Vec<CstBbs> = benign::generate_mix(N_BENIGN, 12)
            .iter()
            .map(model)
            .collect();
        let fixture = Fixture {
            repo,
            attacks,
            benign: ben,
        };
        print_row(
            name,
            separation(&fixture, |t| best_score(&fixture.repo, t, cst_distance)),
        );
    }
}

fn policy_ablation() {
    println!("\n== policy ablation: CST replay cache replacement policy ==");
    for policy in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::TreePlru,
        ReplacementPolicy::Random,
    ] {
        let config = ModelingConfig {
            cst_cache: CacheConfig::new(16, 4, 64).with_policy(policy),
            ..ModelingConfig::default()
        };
        let fixture = build_fixture(&config);
        print_row(
            &policy.to_string(),
            separation(&fixture, |t| best_score(&fixture.repo, t, cst_distance)),
        );
    }
}

/// Related-work comparison: the benign-profile anomaly detector the
/// paper's Related Work critiques — detects, but with false positives and
/// no classification.
fn anomaly_related_work() {
    use sca_attacks::Sample;
    use sca_baselines::{AnomalyDetector, AttackDetector, ScaGuardDetector};
    use sca_cpu::CpuConfig;

    println!(
        "
== related work: benign-profile anomaly detection (paper ref. [32]) =="
    );
    let train: Vec<Sample> = benign::generate_mix(24, 5);
    let refs: Vec<&Sample> = train.iter().collect();
    let mut anomaly = AnomalyDetector::new(CpuConfig::default());
    anomaly.train(&refs).expect("train anomaly");
    let mut guard = ScaGuardDetector::new(ModelingConfig::default());
    let params = PocParams::default();
    let poc_samples: Vec<Sample> = sca_attacks::AttackFamily::ALL
        .iter()
        .map(|&f| poc::representative(f, &params))
        .collect();
    let poc_refs: Vec<&Sample> = poc_samples.iter().collect();
    guard.train(&poc_refs).expect("train scaguard");

    let held_benign: Vec<Sample> = benign::generate_mix(24, 77);
    let mut attacks: Vec<Sample> = Vec::new();
    for f in AttackFamily::ALL {
        attacks.extend(mutated_family(f, 3, 13, &MutationConfig::default()));
    }
    for (name, det) in [
        ("Anomaly-HPC", &anomaly as &dyn AttackDetector),
        ("SCAGuard", &guard as &dyn AttackDetector),
    ] {
        let recall = attacks
            .iter()
            .filter(|s| det.classify(s).expect("classify").is_attack())
            .count();
        let fps = held_benign
            .iter()
            .filter(|s| det.classify(s).expect("classify").is_attack())
            .count();
        println!(
            "  {name:<12} attack recall {recall}/{}  benign false alarms {fps}/{}",
            attacks.len(),
            held_benign.len()
        );
    }
    println!("  (and Anomaly-HPC cannot name the attack family at all)");
}

/// Probe-time distributions of a Prime+Probe traversal with each
/// discipline of DESIGN.md §8 toggled: way-index masking on/off and
/// zig-zag (reverse-order) probing on/off. The numbers printed are the
/// per-set probe time of untouched sets vs the victim's set — the attack
/// only works when the two are separable.
fn traversal_ablation() {
    println!("\n== traversal ablation: Prime+Probe probe-time separability ==");
    let (sets, ways, rounds) = (8i64, 16i64, 3i64);
    let stride = (LLC_SETS * LINE) as i64;
    let victim = Victim::set_conflict(
        VICTIM_CONFLICT_BASE + MONITOR_SET_BASE * LINE,
        LINE,
        vec![3, 3, 3],
    );

    // Build a PP kernel that *stores raw probe times* (round 1 only), with
    // the two disciplines configurable.
    let build = |masked: bool, zigzag: bool| {
        let mut b = ProgramBuilder::new("pp-ablate");
        let (s, w, addr, t0, t1, v, round) = (
            Reg::R2,
            Reg::R3,
            Reg::R4,
            Reg::R5,
            Reg::R6,
            Reg::R8,
            Reg::R7,
        );
        let way_addr = |b: &mut ProgramBuilder| {
            b.mov_reg(addr, w);
            if masked {
                b.alu_imm(AluOp::And, addr, ways - 1);
            }
            b.alu_imm(AluOp::Mul, addr, stride);
            b.mov_reg(v, s);
            b.alu_imm(AluOp::Shl, v, 6);
            b.alu(AluOp::Add, addr, v);
            b.alu_imm(AluOp::Add, addr, prime_addr(MONITOR_SET_BASE, 0) as i64);
        };
        b.mov_imm(round, 0);
        let round_top = b.here();
        // prime, ways ascending
        b.mov_imm(s, 0);
        let pst = b.here();
        b.mov_imm(w, 0);
        let pwt = b.here();
        way_addr(&mut b);
        b.load(v, MemRef::base(addr));
        b.alu_imm(AluOp::Add, w, 1);
        b.cmp_imm(w, ways);
        b.br(Cond::Lt, pwt);
        b.alu_imm(AluOp::Add, s, 1);
        b.cmp_imm(s, sets);
        b.br(Cond::Lt, pst);
        b.vyield();
        // probe, forward or zig-zag
        b.mov_imm(s, 0);
        let qst = b.here();
        b.rdtscp(t0);
        if zigzag {
            b.mov_imm(w, ways - 1);
        } else {
            b.mov_imm(w, 0);
        }
        let qwt = b.here();
        way_addr(&mut b);
        b.load(v, MemRef::base(addr));
        if zigzag {
            b.cmp_imm(w, 0);
            let done = b.new_label();
            b.br(Cond::Eq, done);
            b.alu_imm(AluOp::Sub, w, 1);
            b.jmp(qwt);
            b.bind(done);
        } else {
            b.alu_imm(AluOp::Add, w, 1);
            b.cmp_imm(w, ways);
            b.br(Cond::Lt, qwt);
        }
        b.rdtscp(t1);
        b.alu(AluOp::Sub, t1, t0);
        // store round-1 probe time at scratch + s * 8
        b.cmp_imm(round, 1);
        let skip = b.new_label();
        b.br(Cond::Ne, skip);
        b.mov_reg(addr, s);
        b.alu_imm(AluOp::Shl, addr, 3);
        b.alu_imm(AluOp::Add, addr, 0x3000_0000);
        b.store(t1, MemRef::base(addr));
        b.bind(skip);
        b.alu_imm(AluOp::Add, s, 1);
        b.cmp_imm(s, sets);
        b.br(Cond::Lt, qst);
        b.alu_imm(AluOp::Add, round, 1);
        b.cmp_imm(round, rounds);
        b.br(Cond::Lt, round_top);
        b.halt();
        b.build()
    };

    for (masked, zigzag) in [(false, false), (true, false), (false, true), (true, true)] {
        let p = build(masked, zigzag);
        let mut m = Machine::new(CpuConfig::default());
        m.run(&p, &victim).expect("run");
        let times: Vec<u64> = (0..sets as u64)
            .map(|s| m.read_word(0x3000_0000 + s * 8))
            .collect();
        let victim_t = times[3];
        let others: Vec<u64> = times
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 3)
            .map(|(_, &t)| t)
            .collect();
        let base_max = others.iter().copied().max().unwrap_or(0);
        let base_min = others.iter().copied().min().unwrap_or(0);
        let verdict = if victim_t > base_max {
            format!("separable (+{} over max baseline)", victim_t - base_max)
        } else {
            "NOT separable".to_string()
        };
        println!(
            "  mask={masked:<5} zigzag={zigzag:<5}  baseline {base_min}..{base_max}  victim {victim_t}  -> {verdict}"
        );
    }
}

fn main() {
    println!(
        "ablation fixtures: {} mutants/family, {} benign, 4-PoC repository",
        N_PER_FAMILY, N_BENIGN
    );
    let fixture = build_fixture(&ModelingConfig::default());
    distance_ablation(&fixture);
    dtw_ablation(&fixture);
    graph_ablation();
    policy_ablation();
    traversal_ablation();
    anomaly_related_work();
}

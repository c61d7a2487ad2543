//! Property tests for the sharded scatter-gather scan: classification
//! over 1/2/4/7 shards is byte-identical to the unsharded detector on
//! seeded random repositories from 4 to 512 entries — including shard
//! counts that leave shards empty, and targets enrolled verbatim so the
//! owning shard's zero-distance winner prunes *every* entry of the other
//! shards (a shard whose whole slice is rejected by its index).

use sca_attacks::AttackFamily;
use sca_cache::CacheState;
use sca_isa::rng::SmallRng;
use sca_isa::NormInst;
use scaguard::{
    detection_json, Cst, CstBbs, CstStep, Detector, ModelRepository, Shard, ShardedDetector,
};

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

fn arb_repo(rng: &mut SmallRng, n: usize) -> ModelRepository {
    let mut repo = ModelRepository::new();
    for i in 0..n {
        let family = AttackFamily::ALL[i % AttackFamily::ALL.len()];
        repo.add_model(family, format!("m{i:03}"), arb_model(rng));
    }
    repo
}

/// Classification over 1/2/4/7 shards is byte-identical to the unsharded
/// detector, for random targets and for enrolled duplicates (distance
/// zero: the strongest pruning case — every other shard's entire slice
/// is rejected by its index sort keys, the "fully pruned shard").
#[test]
fn sharded_classification_is_byte_identical_to_unsharded() {
    let mut rng = SmallRng::seed_from_u64(0x5ad_c0de);
    for n in [4usize, 5, 16, 63, 128, 512] {
        let repo = arb_repo(&mut rng, n);
        let unsharded = Detector::new(repo.clone(), 0.45).expect("threshold");
        let mut targets: Vec<(String, CstBbs)> = (0..3)
            .map(|t| (format!("rand{t}"), arb_model(&mut rng)))
            .collect();
        // Enrolled duplicates from the first and last entries: the owning
        // shard finds distance 0, which prunes every entry of every other
        // shard — including a whole shard rejected by its index alone.
        let entries = repo.entries();
        targets.push(("dup-first".into(), entries[0].model.clone()));
        targets.push(("dup-last".into(), entries[n - 1].model.clone()));
        let want: Vec<String> = targets
            .iter()
            .map(|(name, t)| detection_json(name, &unsharded.classify_model(t)).to_string())
            .collect();
        // 7 shards over 4 entries leaves three shards empty.
        for shards in [1usize, 2, 4, 7] {
            let sd = ShardedDetector::new(repo.clone(), 0.45, shards).expect("threshold");
            assert_eq!(sd.shard_count(), shards);
            assert_eq!(
                sd.shards().iter().map(Shard::len).sum::<usize>(),
                n,
                "shards must partition the repository"
            );
            for ((name, t), want) in targets.iter().zip(&want) {
                let got = detection_json(name, &sd.classify_model(t)).to_string();
                assert_eq!(
                    want, &got,
                    "n={n} shards={shards} target={name}: sharded scan diverged"
                );
            }
        }
    }
}

/// The empty repository stays benign at any shard count, with every
/// shard empty.
#[test]
fn empty_repository_shards_are_benign() {
    for shards in [1usize, 2, 4, 7] {
        let sd = ShardedDetector::new(ModelRepository::new(), 0.45, shards).expect("threshold");
        assert!(sd.is_empty());
        assert!(sd.shards().iter().all(Shard::is_empty));
        let mut rng = SmallRng::seed_from_u64(7);
        let det = sd.classify_model(&arb_model(&mut rng));
        assert!(!det.is_attack());
        assert_eq!(det.best, None);
    }
}

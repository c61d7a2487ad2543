//! A scan's telemetry counters account for every repository entry: each
//! entry skipped without a DTW is one `dtw.lb_skips`, and every DTW cell
//! of the `n × m` grid of every entry is either computed or pruned. That
//! holds whichever path skipped the entry — the envelope, the bag bound,
//! the serial scan's sort-key stop or a parallel worker's key skip.
//!
//! The file holds a single test, so no scan outside a `collect` runs in
//! this process while the counters are being read.

use sca_attacks::AttackFamily;
use sca_cache::CacheState;
use sca_isa::rng::SmallRng;
use sca_isa::NormInst;
use scaguard::{
    Cst, CstBbs, CstStep, Detector, IndexConfig, ModelRepository, RepoIndex, ScanRequest,
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

fn arb_model(rng: &mut SmallRng) -> CstBbs {
    let steps = (0..rng.gen_range(1..10usize))
        .map(|_| {
            let norm_insts = (0..rng.gen_range(1..8usize))
                .map(|_| arb_norm_inst(rng))
                .collect();
            let ao = rng.gen_range(0..=500u64) as f64 / 1000.0;
            let io = rng.gen_range(0..=500u64) as f64 / 1000.0;
            CstStep {
                bb_addr: 0x40_0000,
                norm_insts,
                cst: Cst {
                    before: CacheState::full_other(),
                    after: CacheState::new(ao, io),
                },
                first_seen: 0,
            }
        })
        .collect();
    CstBbs::new(steps)
}

fn counter(snap: &sca_telemetry::Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

#[test]
fn every_skipped_entry_and_every_cell_is_counted() {
    let mut rng = SmallRng::seed_from_u64(0x5ca_c0de);
    let mut repo = ModelRepository::new();
    for i in 0..48 {
        let family = AttackFamily::ALL[i % AttackFamily::ALL.len()];
        repo.add_model(family, format!("m{i:02}"), arb_model(&mut rng));
    }
    let linear = Detector::new(repo.clone(), 0.45).expect("threshold");
    let mut indexed = Detector::new(repo.clone(), 0.45).expect("threshold");
    indexed
        .set_index(RepoIndex::build(&repo, &IndexConfig::default()))
        .expect("fresh index matches");
    let grid: usize = repo.entries().iter().map(|e| e.model.len()).sum();

    // Enrolled entries, then programs in no repository.
    let mut targets: Vec<CstBbs> = (0..4)
        .map(|t| repo.entries()[t * 11].model.clone())
        .collect();
    targets.extend((0..4).map(|_| arb_model(&mut rng)));

    let mut key_skips = 0;
    for (label, detector) in [("linear", &linear), ("indexed", &indexed)] {
        for jobs in [1, 3] {
            for (t, target) in targets.iter().enumerate() {
                let req = ScanRequest {
                    jobs,
                    ..ScanRequest::default()
                };
                let (detection, snap) =
                    sca_telemetry::collect(|| detector.scan(target, &req).expect("no deadline"));
                assert!(detection.best_entry().is_some());
                let at = format!("{label} jobs {jobs} target {t}");
                let skipped = counter(&snap, "index.entries_skipped");
                assert_eq!(counter(&snap, "dtw.lb_skips"), skipped, "{at}");
                assert_eq!(
                    counter(&snap, "dtw.cells") + counter(&snap, "dtw.cells_pruned"),
                    (target.len() * grid) as u64,
                    "{at}"
                );
                // Entries that never reached a probe: skipped by their
                // sort key.
                let probed = snap.spans_named("pipeline.compare.dtw").count() as u64;
                key_skips += repo.len() as u64 - probed;
            }
        }
    }
    assert!(key_skips > 0, "no scan skipped an entry by its sort key");
}

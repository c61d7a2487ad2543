//! Acceptance tests for the parallel, content-addressed [`ModelBuilder`]:
//!
//! * **Determinism** — builder output at any job count, cold cache or
//!   warm, is byte-identical to the serial `build_model`/`build_models`
//!   pipeline over the full PoC + benign sample set.
//! * **Cache correctness** — a cached model is only ever served for a
//!   request whose program, victim, and *complete* `ModelingConfig`
//!   (including the CST-replay cache geometry) match; near-miss requests
//!   get freshly correct models, never stale ones.
//! * **Disk persistence** — a cache saved to disk serves byte-identical
//!   models in a fresh process-equivalent builder, a file written by an
//!   earlier version is still served, and a malformed file is dropped
//!   and rewritten.

use std::path::PathBuf;

use sca_cache::CacheConfig;
use sca_cpu::Victim;

use sca_attacks::poc::{self, PocParams};
use sca_attacks::{benign, AttackFamily, Sample};
use scaguard::{
    build_model, build_models, model_text, LoadRepoError, ModelBuilder, ModelingConfig,
};

/// The full determinism workload: every built-in PoC representative, a
/// held-out implementation, and a benign mix.
fn workload() -> Vec<Sample> {
    let params = PocParams::default();
    let mut samples: Vec<Sample> = AttackFamily::ALL
        .iter()
        .map(|&f| poc::representative(f, &params))
        .collect();
    samples.push(poc::flush_reload_mastik(&params));
    samples.extend(benign::generate_mix(6, 0xb0));
    samples
}

/// A per-process scratch path for a disk-cache file.
fn cache_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "scaguard-builder-{tag}-{}.cache",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn parallel_builder_is_byte_identical_to_serial() {
    let cfg = ModelingConfig::default();
    let samples = workload();
    let targets: Vec<_> = samples.iter().map(|s| (&s.program, &s.victim)).collect();
    // Serial references: per-sample `build_model` (order-based) and the
    // batch `build_models` map (name-keyed; names are unique here).
    let serial: Vec<_> = samples
        .iter()
        .map(|s| build_model(&s.program, &s.victim, &cfg).expect("serial model"))
        .collect();
    let map = build_models(targets.iter().copied(), &cfg);
    assert_eq!(map.len(), samples.len(), "workload names must be unique");

    for jobs in [1, 2, 4, 8] {
        let builder = ModelBuilder::new(&cfg).with_jobs(jobs);
        for round in ["cold", "warm"] {
            let built = builder.build_batch_cst(&targets);
            assert_eq!(built.len(), samples.len());
            for ((s, reference), b) in samples.iter().zip(&serial).zip(&built) {
                let b = b.as_ref().expect("builder model");
                let ctx = format!("jobs={jobs} {round} {}", s.program.name());
                assert_eq!(
                    model_text(&reference.cst_bbs),
                    model_text(b),
                    "{ctx}: model bytes differ from serial build_model"
                );
                assert_eq!(reference.cst_bbs, **b, "{ctx}");
                let from_map = map[s.program.name()].as_ref().expect("map model");
                assert_eq!(from_map.cst_bbs, **b, "{ctx}: differs from build_models");
            }
        }
        let stats = builder.stats();
        assert!(
            stats.hits >= samples.len() as u64,
            "jobs={jobs}: warm round must be served by the cache ({stats:?})"
        );
    }
}

#[test]
fn cache_distinguishes_cst_cache_geometry() {
    let params = PocParams::default();
    let s = poc::representative(AttackFamily::FlushReload, &params);
    let small = ModelingConfig::default();
    let big = ModelingConfig {
        cst_cache: CacheConfig::new(64, 8, 64),
        ..ModelingConfig::default()
    };
    assert_ne!(small.cst_cache.sets, big.cst_cache.sets);
    let path = cache_path("geometry");

    // Each builder in turn loads the shared file, models the same target
    // under its own geometry, and saves. Every request must get the
    // model the serial pipeline produces for *its* config: the first
    // visit per geometry misses even though the file holds the other
    // geometry's model, and the second visit hits its own entry.
    for (round, cfg) in [&small, &big, &small, &big].into_iter().enumerate() {
        let builder = ModelBuilder::new(cfg).with_disk_cache(&path);
        builder.load_disk_cache().expect("load the shared cache");
        assert_eq!(
            builder.len(),
            round.min(2),
            "round {round}: entries on disk"
        );
        let built = builder.build_cst(&s.program, &s.victim).expect("model");
        let reference = build_model(&s.program, &s.victim, cfg).expect("serial");
        assert_eq!(
            model_text(&reference.cst_bbs),
            model_text(&built),
            "round {round}: geometry {:?} must map to its own cache entry",
            cfg.cst_cache
        );
        let stats = builder.stats();
        let first_visit = round < 2;
        assert_eq!(
            (stats.misses, stats.hits),
            if first_visit { (1, 0) } else { (0, 1) },
            "round {round}: {stats:?}"
        );
        builder.save_disk_cache().expect("persist");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cache_distinguishes_program_and_victim() {
    let params = PocParams::default();
    let cfg = ModelingConfig::default();
    let a = poc::representative(AttackFamily::FlushReload, &params);
    let b = poc::representative(AttackFamily::PrimeProbe, &params);
    let silent = Victim::None;

    let builder = ModelBuilder::new(&cfg);
    // Interleave requests so every later one could be served stale if
    // keys under-discriminated.
    for _ in 0..2 {
        for (program, victim, what) in [
            (&a.program, &a.victim, "fr"),
            (&b.program, &b.victim, "pp"),
            (&a.program, &silent, "fr-silent"),
        ] {
            let built = builder.build_cst(program, victim).expect("model");
            let reference = build_model(program, victim, &cfg).expect("serial");
            assert_eq!(
                model_text(&reference.cst_bbs),
                model_text(&built),
                "{what}: cached model must match its own serial reference"
            );
        }
    }
    let stats = builder.stats();
    assert_eq!(stats.misses, 3, "three distinct keys: {stats:?}");
    assert_eq!(stats.hits, 3, "second pass fully cached: {stats:?}");
}

#[test]
fn disk_cache_round_trips_byte_identical_models() {
    let cfg = ModelingConfig::default();
    let params = PocParams::default();
    let samples: Vec<Sample> = AttackFamily::ALL
        .iter()
        .map(|&f| poc::representative(f, &params))
        .collect();
    let path = cache_path("disk");

    let writer = ModelBuilder::new(&cfg).with_disk_cache(&path);
    writer
        .load_disk_cache()
        .expect("a missing file is an empty cache");
    assert!(writer.is_empty());
    for s in &samples {
        writer.build_cst(&s.program, &s.victim).expect("model");
    }
    writer.save_disk_cache().expect("persist");

    let reader = ModelBuilder::new(&cfg).with_disk_cache(&path);
    reader.load_disk_cache().expect("load disk cache");
    assert_eq!(reader.len(), samples.len(), "all entries persisted");
    for s in &samples {
        let from_disk = reader.build_cst(&s.program, &s.victim).expect("model");
        let reference = build_model(&s.program, &s.victim, &cfg).expect("serial");
        assert_eq!(
            model_text(&reference.cst_bbs),
            model_text(&from_disk),
            "{}: disk-served model must match serial",
            s.program.name()
        );
    }
    let stats = reader.stats();
    assert_eq!(stats.misses, 0, "reader never rebuilds: {stats:?}");
    assert_eq!(stats.hits, samples.len() as u64);
    let _ = std::fs::remove_file(&path);
}

/// `tests/data/fr-f.modelcache` was written by an earlier `scaguard
/// classify FR-F.sasm --victim shared:3 --model-cache` (FR-F as
/// `examples/dump_pocs` writes it), so it pins the canonical key bytes.
#[test]
fn a_cache_written_by_an_earlier_version_is_still_served() {
    let cfg = ModelingConfig::default();
    let fr = poc::representative(AttackFamily::FlushReload, &PocParams::default());
    let program = sca_isa::assemble("FR-F", &sca_isa::to_asm(&fr.program)).expect("assemble");
    let victim = Victim::shared_memory(0x1000_0000, 64, vec![3]);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/fr-f.modelcache");
    let builder = ModelBuilder::new(&cfg).with_disk_cache(path);
    builder.load_disk_cache().expect("load the fixture");
    assert_eq!(builder.len(), 1);
    let served = builder.build_cst(&program, &victim).expect("model");
    let stats = builder.stats();
    assert_eq!((stats.misses, stats.hits), (0, 1), "{stats:?}");
    let reference = build_model(&program, &victim, &cfg).expect("serial");
    assert_eq!(model_text(&reference.cst_bbs), model_text(&served));
}

#[test]
fn a_malformed_cache_loads_nothing_and_is_rewritten() {
    let cfg = ModelingConfig::default();
    let s = poc::representative(AttackFamily::FlushReload, &PocParams::default());
    let path = cache_path("torn");
    let writer = ModelBuilder::new(&cfg).with_disk_cache(&path);
    writer.build_cst(&s.program, &s.victim).expect("model");
    writer.save_disk_cache().expect("persist");
    let bytes = std::fs::read(&path).expect("cache written");
    std::fs::write(&path, &bytes[..300]).expect("truncate");

    let torn = ModelBuilder::new(&cfg).with_disk_cache(&path);
    let err = torn
        .load_disk_cache()
        .expect_err("a torn file is malformed");
    assert!(matches!(err, LoadRepoError::Parse { .. }), "{err}");
    assert!(torn.is_empty());
    // Nothing was built, yet the save still replaces the torn file.
    torn.save_disk_cache().expect("rewrite");
    let reread = ModelBuilder::new(&cfg).with_disk_cache(&path);
    reread.load_disk_cache().expect("the rewritten file parses");
    assert!(reread.is_empty());
    let _ = std::fs::remove_file(&path);
}

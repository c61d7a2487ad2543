//! The repo-scan classification bench: the naive full scan (PR 1's
//! `classify_model`) vs the similarity engine (interning + lower bounds +
//! early abandoning), on identical workloads.
//!
//! The workload mirrors deployment: a repository of one PoC model per
//! attack family, and a batch of mutated attack variants plus benign
//! programs to classify. Both scans are timed end to end, including
//! detector construction, so the engine gets no free warm-up.
//!
//! * `cargo run -p sca-bench --release` — full run; writes
//!   `BENCH_similarity.json` at the workspace root.
//! * `cargo run -p sca-bench --release -- --smoke` — small workload,
//!   exactness assertions, no JSON; the CI verify step runs this.

use std::time::Instant;

use sca_attacks::dataset::mutated_family;
use sca_attacks::mutate::MutationConfig;
use sca_attacks::poc::{self, PocParams};
use sca_attacks::{benign, AttackFamily};
use sca_telemetry::Json;
use scaguard::{
    detection_json, similarity_score, CstBbs, Detector, IndexConfig, ModelBuilder, ModelRepository,
    ModelingConfig, RepoIndex,
};

const ROUNDS: usize = 5;
/// Rounds for the repo-size sweep (each round scans up to 4096 entries).
const SWEEP_ROUNDS: usize = 3;
const SEED: u64 = 0x5ca6_be9c;

struct Workload {
    repo: ModelRepository,
    targets: Vec<CstBbs>,
}

fn build_workload(per_type: usize, benign_total: usize) -> Workload {
    let params = PocParams::default();
    let cfg = ModelingConfig::default();
    let mutation = MutationConfig::default();
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let builder = ModelBuilder::new(&cfg).with_jobs(jobs);
    let mut repo = ModelRepository::new();
    for family in AttackFamily::ALL {
        let s = poc::representative(family, &params);
        repo.add_poc_with(family, &s.program, &s.victim, &builder)
            .expect("PoC models");
    }
    let mut samples = Vec::new();
    for family in AttackFamily::ALL {
        samples.extend(mutated_family(family, per_type, SEED, &mutation));
    }
    samples.extend(benign::generate_mix(benign_total, SEED ^ 0xbe));
    let targets: Vec<_> = samples.iter().map(|s| (&s.program, &s.victim)).collect();
    let targets = builder
        .build_batch_cst(&targets)
        .into_iter()
        .map(|r| (*r.expect("target models")).clone())
        .collect();
    Workload { repo, targets }
}

/// The naive scan: every entry scored with the reference
/// `similarity_score` (full DTW, Levenshtein per cell), best by `max_by`
/// — exactly PR 1's `classify_model`.
fn naive_scan(w: &Workload) -> Vec<f64> {
    w.targets
        .iter()
        .map(|target| {
            w.repo
                .entries()
                .iter()
                .map(|e| similarity_score(target, &e.model))
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .collect()
}

/// The engine scan: a fresh detector (its engine pays interning from
/// scratch) classifying the same batch serially.
fn engine_scan(w: &Workload) -> Vec<f64> {
    let detector =
        Detector::new(w.repo.clone(), Detector::DEFAULT_THRESHOLD).expect("threshold in range");
    detector
        .classify_batch(&w.targets, 1)
        .into_iter()
        .map(|det| det.best_score())
        .collect()
}

/// Median wall time of `f` over [`ROUNDS`] runs, in nanoseconds.
fn time_median(mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// DTW cells the naive scan executes: `n·m` per comparison, no pruning.
fn naive_cells(w: &Workload) -> u64 {
    w.targets
        .iter()
        .map(|t| {
            w.repo
                .entries()
                .iter()
                .map(|e| (t.len() * e.model.len()) as u64)
                .sum::<u64>()
        })
        .sum()
}

fn counter(snap: &sca_telemetry::Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// One point of the repo-size sweep: indexed vs linear scan over a
/// repository of `entries` enrolled variant models.
struct SweepPoint {
    entries: usize,
    targets: usize,
    linear_ns: u64,
    indexed_ns: u64,
    speedup: f64,
    full_dtw_runs: u64,
    /// Full DTW runs as a fraction of `entries * targets` comparisons.
    dtw_frac: f64,
    entries_skipped: u64,
    lb_evals: u64,
}

/// Build `total` enrolled variant models (`total / 4` per family),
/// named exactly like `scaguard build-repo --variants` names them, so
/// the sweep measures the same repositories users build.
fn build_variant_models(total: usize) -> Vec<(AttackFamily, String, CstBbs)> {
    let per_family = total / AttackFamily::ALL.len();
    let builder = ModelBuilder::new(&ModelingConfig::default());
    let mut labels = Vec::with_capacity(total);
    let mut samples = Vec::with_capacity(total);
    for family in AttackFamily::ALL {
        let mutation = MutationConfig::default();
        for (i, sample) in mutated_family(family, per_family, SEED, &mutation)
            .into_iter()
            .enumerate()
        {
            labels.push((family, format!("{}-var-{i:04}", family.abbrev())));
            samples.push(sample);
        }
    }
    let targets: Vec<_> = samples.iter().map(|s| (&s.program, &s.victim)).collect();
    let models = builder.build_batch_cst(&targets);
    labels
        .into_iter()
        .zip(models)
        .map(|((family, name), model)| (family, name, (*model.expect("variant models")).clone()))
        .collect()
}

/// The sweep repository of `size` entries: `size / 4` variants per
/// family, a prefix of the master list so larger repos strictly extend
/// smaller ones.
fn sweep_repo(models: &[(AttackFamily, String, CstBbs)], size: usize) -> ModelRepository {
    let per_family = models.len() / AttackFamily::ALL.len();
    let take = size / AttackFamily::ALL.len();
    let mut repo = ModelRepository::new();
    for f in 0..AttackFamily::ALL.len() {
        for (family, name, model) in &models[f * per_family..f * per_family + take] {
            repo.add_model(*family, name.as_str(), model.clone());
        }
    }
    repo
}

/// Measure one sweep point. Byte-exactness between the indexed and the
/// linear scan is asserted on every target BEFORE anything is timed:
/// a pruning bug fails the bench rather than flattering it.
fn sweep_point(
    models: &[(AttackFamily, String, CstBbs)],
    size: usize,
    n_targets: usize,
) -> SweepPoint {
    let repo = sweep_repo(models, size);
    let linear = Detector::new(repo.clone(), Detector::DEFAULT_THRESHOLD).expect("threshold");
    let mut indexed = Detector::new(repo.clone(), Detector::DEFAULT_THRESHOLD).expect("threshold");
    indexed
        .set_index(RepoIndex::build(&repo, &IndexConfig::default()))
        .expect("fresh index matches its repository");

    // Targets: enrolled variants sampled evenly across the repository
    // (query-in-database — the deployment case `build-repo --variants`
    // sets up, and the one the best-so-far threshold must exploit).
    let targets: Vec<CstBbs> = (0..n_targets)
        .map(|t| repo.entries()[t * repo.len() / n_targets].model.clone())
        .collect();

    // Exactness gate, before any timing.
    let want: Vec<String> = linear
        .classify_batch(&targets, 1)
        .iter()
        .map(|d| detection_json("t", d).to_string())
        .collect();
    for (label, jobs) in [("indexed", 1usize), ("indexed --jobs 2", 2)] {
        let got: Vec<String> = indexed
            .classify_batch(&targets, jobs)
            .iter()
            .map(|d| detection_json("t", d).to_string())
            .collect();
        assert_eq!(
            want, got,
            "{size} entries: {label} detections differ from the linear scan"
        );
    }

    let median = |f: &mut dyn FnMut()| {
        let mut samples: Vec<u64> = (0..SWEEP_ROUNDS)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    };
    let linear_ns = median(&mut || {
        std::hint::black_box(linear.classify_batch(&targets, 1));
    });
    let indexed_ns = median(&mut || {
        std::hint::black_box(indexed.classify_batch(&targets, 1));
    });

    // Work accounting: one telemetry-instrumented indexed pass.
    let (_, snap) = sca_telemetry::collect(|| indexed.classify_batch(&targets, 1));
    let full_dtw_runs = counter(&snap, "index.full_dtw_runs");
    let comparisons = (size * targets.len()) as f64;
    SweepPoint {
        entries: size,
        targets: targets.len(),
        linear_ns,
        indexed_ns,
        speedup: linear_ns as f64 / indexed_ns.max(1) as f64,
        full_dtw_runs,
        dtw_frac: full_dtw_runs as f64 / comparisons,
        entries_skipped: counter(&snap, "index.entries_skipped"),
        lb_evals: counter(&snap, "index.lb_evals"),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (per_type, benign_total) = if smoke { (3, 4) } else { (24, 32) };
    eprintln!("building workload: {per_type} variants/type + {benign_total} benign ...");
    let w = build_workload(per_type, benign_total);
    eprintln!(
        "repo: {} models, targets: {}",
        w.repo.len(),
        w.targets.len()
    );

    // Exactness first: the engine's best scores must be bitwise naive.
    let naive_scores = naive_scan(&w);
    let engine_scores = engine_scan(&w);
    assert_eq!(naive_scores.len(), engine_scores.len());
    for (i, (n, e)) in naive_scores.iter().zip(&engine_scores).enumerate() {
        assert_eq!(
            e.to_bits(),
            n.to_bits(),
            "target {i}: engine best {e} != naive best {n}"
        );
    }
    eprintln!("exactness: engine best scores bitwise-match naive on all targets");

    // Wall clock, both paths, identical workload.
    let naive_ns = time_median(|| {
        std::hint::black_box(naive_scan(&w));
    });
    let engine_ns = time_median(|| {
        std::hint::black_box(engine_scan(&w));
    });
    let speedup = naive_ns as f64 / engine_ns.max(1) as f64;

    // Work accounting: one telemetry-instrumented engine pass.
    let (_, snap) = sca_telemetry::collect(|| engine_scan(&w));
    let cells_naive = naive_cells(&w);
    let cells_engine = counter(&snap, "dtw.cells");
    let cells_pruned = counter(&snap, "dtw.cells_pruned");
    let lb_skips = counter(&snap, "dtw.lb_skips");
    let cache_hits = counter(&snap, "simcache.hits");
    let cache_misses = counter(&snap, "simcache.misses");

    println!(
        "repo-scan classification ({} targets x {} entries)",
        w.targets.len(),
        w.repo.len()
    );
    println!("  naive   {naive_ns:>12} ns/scan   {cells_naive:>10} dtw cells");
    println!("  engine  {engine_ns:>12} ns/scan   {cells_engine:>10} dtw cells");
    println!(
        "  speedup {speedup:>11.2}x          {cells_pruned:>10} cells pruned, {lb_skips} lb skips"
    );
    println!("  simcache: {cache_hits} hits / {cache_misses} misses");

    // Repo-size sweep: the persisted metric index vs the linear scan on
    // bulk-enrolled repositories, byte-exactness asserted at every size
    // before timing.
    let sweep_sizes: &[usize] = if smoke { &[4, 16] } else { &[4, 64, 512, 4096] };
    let sweep_targets = if smoke { 4 } else { 8 };
    let max_size = *sweep_sizes.last().expect("nonempty sweep");
    eprintln!("building {max_size} variant models for the index sweep ...");
    let models = build_variant_models(max_size);
    let mut sweep = Vec::with_capacity(sweep_sizes.len());
    println!("index sweep ({sweep_targets} targets, byte-exact at every size)");
    println!(
        "  {:>7} {:>14} {:>14} {:>8} {:>9} {:>9} {:>10}",
        "entries", "linear ns", "indexed ns", "speedup", "full-dtw", "dtw-frac", "skipped"
    );
    for &size in sweep_sizes {
        let p = sweep_point(&models, size, sweep_targets);
        println!(
            "  {:>7} {:>14} {:>14} {:>7.2}x {:>9} {:>8.2}% {:>10}",
            p.entries,
            p.linear_ns,
            p.indexed_ns,
            p.speedup,
            p.full_dtw_runs,
            p.dtw_frac * 100.0,
            p.entries_skipped
        );
        sweep.push(p);
    }

    if smoke {
        assert!(
            speedup >= 1.0,
            "smoke: engine slower than naive ({speedup:.2}x)"
        );
        assert!(cells_engine < cells_naive, "smoke: no cell reduction");
        let last = sweep.last().expect("sweep ran");
        assert!(
            last.entries_skipped > 0,
            "smoke: the index skipped nothing at {} entries",
            last.entries
        );
        eprintln!("smoke OK");
        return;
    }

    assert!(
        speedup >= 3.0,
        "full bench below the 3x acceptance floor: {speedup:.2}x"
    );
    let last = sweep.last().expect("sweep ran");
    assert!(
        last.dtw_frac < 0.05,
        "index sweep: {:.2}% of comparisons ran full DTW at {} entries (floor: 5%)",
        last.dtw_frac * 100.0,
        last.entries
    );
    assert!(
        last.speedup >= 10.0,
        "index sweep below the 10x acceptance floor at {} entries: {:.2}x",
        last.entries,
        last.speedup
    );
    let json = Json::Obj(vec![
        ("bench".into(), Json::Str("repo-scan classification".into())),
        (
            "workload".into(),
            Json::Obj(vec![
                ("repo_entries".into(), Json::Num(w.repo.len() as f64)),
                ("targets".into(), Json::Num(w.targets.len() as f64)),
                ("variants_per_type".into(), Json::Num(per_type as f64)),
                ("benign".into(), Json::Num(benign_total as f64)),
                ("rounds".into(), Json::Num(ROUNDS as f64)),
            ]),
        ),
        (
            "naive".into(),
            Json::Obj(vec![
                ("wall_ns".into(), Json::Num(naive_ns as f64)),
                ("dtw_cells".into(), Json::Num(cells_naive as f64)),
            ]),
        ),
        (
            "engine".into(),
            Json::Obj(vec![
                ("wall_ns".into(), Json::Num(engine_ns as f64)),
                ("dtw_cells".into(), Json::Num(cells_engine as f64)),
                ("dtw_cells_pruned".into(), Json::Num(cells_pruned as f64)),
                ("dtw_lb_skips".into(), Json::Num(lb_skips as f64)),
                ("simcache_hits".into(), Json::Num(cache_hits as f64)),
                ("simcache_misses".into(), Json::Num(cache_misses as f64)),
            ]),
        ),
        (
            "speedup".into(),
            Json::Num((speedup * 100.0).round() / 100.0),
        ),
        ("exact".into(), Json::Bool(true)),
        (
            "index_sweep".into(),
            Json::Arr(
                sweep
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("entries".into(), Json::Num(p.entries as f64)),
                            ("targets".into(), Json::Num(p.targets as f64)),
                            ("linear_wall_ns".into(), Json::Num(p.linear_ns as f64)),
                            ("indexed_wall_ns".into(), Json::Num(p.indexed_ns as f64)),
                            (
                                "speedup".into(),
                                Json::Num((p.speedup * 100.0).round() / 100.0),
                            ),
                            ("full_dtw_runs".into(), Json::Num(p.full_dtw_runs as f64)),
                            (
                                "full_dtw_fraction".into(),
                                Json::Num((p.dtw_frac * 1e4).round() / 1e4),
                            ),
                            (
                                "entries_skipped".into(),
                                Json::Num(p.entries_skipped as f64),
                            ),
                            ("lb_evals".into(), Json::Num(p.lb_evals as f64)),
                            ("byte_exact".into(), Json::Bool(true)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_similarity.json");
    std::fs::write(out, format!("{json}\n")).expect("write BENCH_similarity.json");
    eprintln!("wrote {out}");
}

//! In-process probes of single layers, timed through their public entry
//! points on a sample of the workload's own programs and repository.
//!
//! Each call runs inside a `bench.probe.*` span so the benchmark's trace
//! shows it next to the spans the library records underneath.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use sca_cpu::Machine;
use sca_serve::protocol::parse_victim;
use scaguard::{
    build_model, index_sidecar_path, load_index, load_repository, model_from_blocks, IndexConfig,
    ModelBuilder, ModelingConfig, RepoIndex, StreamingModeler,
};

use crate::gen::Prog;
use crate::proc;
use crate::stats::median;

/// Instructions committed per streaming increment (the server default).
const INCREMENT: u64 = 64;

/// One probe measurement: metric name and value.
pub type Metric = (&'static str, f64);

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time `f` inside a span named `name`.
fn timed<T>(name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
    let _sp = sca_telemetry::span(name);
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn model_error(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Repetitions of each single-program probe; the median is kept, so the
/// first, cold call does not skew a layer against the next one.
const REPEATS: usize = 3;

/// Median duration of `REPEATS` calls of `f`, each inside a span `name`.
fn median_of<T>(name: &str, mut f: impl FnMut() -> T) -> f64 {
    let runs: Vec<f64> = (0..REPEATS)
        .map(|_| micros(timed(name, &mut f).1))
        .collect();
    median(&runs)
}

/// Probe the CPU simulator, modeling pipeline, model builder and
/// streaming modeler on `sample`: per program the median of a few calls,
/// averaged over the programs.
pub fn pipeline(sample: &[Prog]) -> io::Result<Vec<Metric>> {
    let cfg = ModelingConfig::default();
    let mut execute = Vec::new();
    let mut build = Vec::new();
    let mut replay = Vec::new();
    let mut graph = Vec::new();
    let mut miss = Vec::new();
    let mut hit = Vec::new();
    let mut advance = Vec::new();
    let mut model_cst = Vec::new();
    for p in sample {
        let program = sca_isa::assemble(&p.name, &p.source).map_err(model_error)?;
        let victim = parse_victim(p.victim).map_err(model_error)?;
        let outcome = build_model(&program, &victim, &cfg).map_err(model_error)?;
        let e = median_of("bench.probe.execute", || {
            Machine::new(cfg.cpu.clone()).run(&program, &victim)
        });
        let b = median_of("bench.probe.build_model", || {
            build_model(&program, &victim, &cfg)
        });
        let r = median_of("bench.probe.model_from_blocks", || {
            model_from_blocks(
                &program,
                &outcome.cfg,
                &outcome.trace,
                &outcome.relevant_bbs,
                &cfg.cst_cache,
            )
        });
        execute.push(e);
        build.push(b);
        replay.push(r);
        graph.push((b - e - r).max(0.0));
        let builder = ModelBuilder::new(&cfg);
        let (cold, d) = timed("bench.probe.builder_miss", || {
            builder.build_cst(&program, &victim)
        });
        cold.map_err(model_error)?;
        miss.push(micros(d));
        hit.push(median_of("bench.probe.builder_hit", || {
            builder.build_cst(&program, &victim)
        }));
        let mut modeler = StreamingModeler::begin(&program, &victim, &cfg).map_err(model_error)?;
        while !modeler.is_done() {
            let (_, d) = timed("bench.probe.stream_advance", || modeler.advance(INCREMENT));
            advance.push(micros(d));
            let (_, d) = timed("bench.probe.stream_model_cst", || modeler.model_cst());
            model_cst.push(micros(d));
        }
    }
    Ok(vec![
        ("cpu.execute_us", mean(&execute)),
        ("modeling.build_us", mean(&build)),
        ("modeling.cst_replay_us", mean(&replay)),
        ("modeling.graph_us", mean(&graph)),
        ("builder.miss_us", mean(&miss)),
        ("builder.hit_us", mean(&hit)),
        ("stream.advance_us", mean(&advance)),
        ("stream.model_cst_us", mean(&model_cst)),
    ])
}

/// Probe repository and index persistence plus the index build on the
/// workload's repository file.
pub fn repository(repo_path: &Path) -> io::Result<Vec<Metric>> {
    let (repo, load_repo) = timed("bench.probe.load_repository", || load_repository(repo_path));
    let repo = repo.map_err(model_error)?;
    let (index, load_index_d) = timed("bench.probe.load_index", || {
        load_index(index_sidecar_path(repo_path))
    });
    index.map_err(model_error)?;
    let (_, build) = timed("bench.probe.index_build", || {
        RepoIndex::build(&repo, &IndexConfig::default())
    });
    Ok(vec![
        ("persist.load_repo_ms", millis(load_repo)),
        ("persist.load_index_ms", millis(load_index_d)),
        ("index.build_ms", millis(build)),
    ])
}

/// The floor under every one-shot CLI run: the median wall time of
/// `scaguard --version` over `runs` processes.
pub fn process_spawn(runs: usize) -> io::Result<Vec<Metric>> {
    let mut ms = Vec::with_capacity(runs);
    for _ in 0..runs {
        let (out, d) = timed("bench.probe.spawn", || proc::scaguard(&["--version"]));
        out?;
        ms.push(millis(d));
    }
    Ok(vec![("process.spawn_ms", median(&ms))])
}

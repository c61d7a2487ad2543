//! # scabench — one benchmark for the SCAGuard detection service
//!
//! Drives the shipped `scaguard` binary from outside — `scaguard serve`
//! over its NDJSON protocol, and `build-repo` / `classify` as child
//! processes — on five seeded workloads, and reports end-to-end metrics
//! (what a caller sees) or, with `--trace 1`, per-layer metrics (where
//! the time went). See README.md beside this file.
//!
//! ```text
//! scabench [--workload NAME]... [--seed N] [--seconds 10] [--runs N]
//!          [--trace 0|1] [--out DIR] [--smoke]
//! scabench compare A.json B.json
//! ```
//!
//! Prints one `workload metric value unit` line per metric, writes every
//! run's values with their median and quartiles to `<out>/results.json`,
//! and ends with one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. Exits
//! nonzero when any operation failed or any correctness check mismatched.

mod compare;
mod gen;
mod layers;
mod load;
mod proc;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use sca_telemetry::Json;

use load::{Answers, Phase};
use proc::Server;
use workload::{gate, setup, Env, Inputs, Scale, Workload, PHASE_SECONDS, SETUP_PAUSE, TAIL};

/// One metric of one run.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// The end-to-end metrics, with their units, in report order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("items_per_s", "items/s"),
    ("cpu_ms_per_item", "ms"),
];

/// The per-layer metrics, with their units, in report order.
const PER_LAYER: [(&str, &str); 40] = [
    ("serve.reactor.gap_p50_us", "us"),
    ("serve.reactor.gap_tail_us", "us"),
    ("serve.reactor.cpu_us_per_item", "us"),
    ("serve.queue.wait_p50_us", "us"),
    ("serve.queue.wait_tail_us", "us"),
    ("serve.worker.model_us_per_item", "us"),
    ("serve.worker.scan_us_per_item", "us"),
    ("serve.worker.render_us_per_item", "us"),
    ("serve.unattributed_us_per_item", "us"),
    ("trace.pipeline.execute_self_us", "us"),
    ("trace.pipeline.collect_self_us", "us"),
    ("trace.pipeline.model.relevant_bb_self_us", "us"),
    ("trace.pipeline.model.graph_self_us", "us"),
    ("trace.pipeline.model.cst_replay_self_us", "us"),
    ("trace.pipeline.compare.dtw_self_us", "us"),
    ("trace.builder.build_self_us", "us"),
    ("trace.serve.request_self_us", "us"),
    ("cpu.execute_us", "us"),
    ("cpu.instructions_per_item", "count"),
    ("modeling.build_us", "us"),
    ("modeling.cst_replay_us", "us"),
    ("modeling.graph_us", "us"),
    ("builder.miss_us", "us"),
    ("builder.hit_us", "us"),
    ("builder.hit_ratio", "fraction"),
    ("index.skipped_per_item", "count"),
    ("index.full_dtw_per_item", "count"),
    ("index.build_ms", "ms"),
    ("dtw.cells_per_item", "count"),
    ("dtw.prune_ratio", "fraction"),
    ("simcache.hit_ratio", "fraction"),
    ("persist.load_repo_ms", "ms"),
    ("persist.load_index_ms", "ms"),
    ("stream.advance_us", "us"),
    ("stream.model_cst_us", "us"),
    ("process.spawn_ms", "ms"),
    ("generator.lag_tail_ms", "ms"),
    ("trace_overhead_pct", "%"),
    ("time_to_alarm_ms", "ms"),
    ("reload_p50_ms", "ms"),
];

/// Fill `table`'s metrics from `values`, in table order; a metric a
/// workload has no operation for reads 0.
fn metrics(table: &[(&'static str, &'static str)], values: &BTreeMap<&str, f64>) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            Metric {
                name: name.to_string(),
                // `+ 0.0` turns an empty sum's -0 into 0.
                value: if value.is_finite() { value + 0.0 } else { 0.0 },
                unit,
            }
        })
        .collect()
}

/// What one run of one workload measured.
struct RunResult {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn run(w: Workload, seed: u64, scale: Scale, traced: bool, out: &Path) -> io::Result<RunResult> {
    let work = out.join(format!("work-{}-{seed}-{}", w.name(), std::process::id()));
    let _scratch = Scratch(work.clone());
    let mut inputs = Inputs::new(w, seed, scale);
    inputs.write_files(&work.join("programs"))?;
    if traced {
        return run_traced(&inputs, out, &work);
    }
    let scale = &inputs.scale;
    let mut setups = Vec::with_capacity(scale.setups);
    let mut env: Option<Env> = None;
    for k in 0..scale.setups {
        if let Some(previous) = env.take() {
            previous.stop()?;
            std::thread::sleep(SETUP_PAUSE);
        }
        let t = Instant::now();
        env = Some(setup(w, &work.join(format!("setup-{k}")), scale, &[])?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let env = env.expect("at least one set-up");
    let mut answers = Answers::default();
    inputs.warm_up(&env, &mut answers)?;
    let (cpu_before, steal_before) = (env.cpu_secs()?, proc::steal_secs()?);
    let (phase, used) = inputs.phase(&env, 1.0, &mut answers)?;
    let cpu = env.cpu_secs()? - cpu_before;
    let steal = proc::steal_secs()? - steal_before;
    let sample = inputs.sample(used);
    let (checks, mismatches) = gate(w, &env, &work.join("gate"), &sample, &mut answers)?;
    env.stop()?;
    let lat = phase.latencies_ms();
    if !scale.smoke && stats::tail_percentile(lat.len()).is_none_or(|p| p < TAIL) {
        eprintln!(
            "scabench: {}: {} ops leave fewer than ten beyond p{TAIL}",
            w.name(),
            lat.len(),
        );
    }
    let lag_tail = stats::percentile(&lag_ms(&phase), TAIL);
    if lag_tail > 1.0 {
        eprintln!(
            "scabench: {}: the generator ran {lag_tail:.2} ms late at p{TAIL}",
            w.name(),
        );
    }
    // On a shared virtual machine the hypervisor can take the CPUs away
    // for milliseconds at a time, which shows up as latency everywhere.
    let steal_pct = 100.0 * steal / phase.elapsed.as_secs_f64();
    if steal_pct > 1.0 {
        eprintln!(
            "scabench: {}: the hypervisor took {steal_pct:.1}% of the CPU time during the phase",
            w.name()
        );
    }
    let items = phase.items().max(1) as f64;
    let values = BTreeMap::from([
        ("setup_s", stats::median(&setups)),
        ("latency_p50_ms", stats::percentile(&lat, 50.0)),
        ("latency_tail_ms", stats::percentile(&lat, TAIL)),
        ("items_per_s", items / phase.elapsed.as_secs_f64()),
        ("cpu_ms_per_item", cpu * 1e3 / items),
    ]);
    Ok(RunResult {
        metrics: metrics(&END_TO_END, &values),
        attempted: phase.attempted + checks,
        failed: phase.failed + mismatches,
    })
}

fn lag_ms(phase: &Phase) -> Vec<f64> {
    phase.ops.iter().map(|o| o.lag_ns as f64 / 1e6).collect()
}

/// Share of the full phase length each half of a traced run measures.
const TRACED_SHARE: f64 = 0.25;

/// The traced run. First a quarter-length phase on a plain server gives
/// everything tracing would distort: the tracing overhead's baseline, the
/// alarm and reload latencies, the stage timings the server reports per
/// request (a traced server also writes each request's span tree before
/// answering) and its CPU by thread. Then a quarter-length phase on a
/// server that dumps every request's span tree and counts in its
/// registry; the dumps are joined to this run's requests by trace id.
/// Last, the in-process layer probes. The benchmark's own spans go to
/// `<out>/<workload>.trace.jsonl`.
fn run_traced(inputs: &Inputs, out: &Path, work: &Path) -> io::Result<RunResult> {
    let w = inputs.w;
    sca_telemetry::set_enabled(true);
    // Each traced run's trace file holds its own spans only.
    sca_telemetry::reset();
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let mut answers = Answers::default();

    let plain = setup(w, &work.join("plain"), &inputs.scale, &[])?;
    inputs.warm_up(&plain, &mut answers)?;
    let server_cpu = || plain.server.as_ref().map(Server::cpu).transpose();
    let cpu_before = server_cpu()?;
    let (phase, _) = inputs.phase(&plain, TRACED_SHARE, &mut answers)?;
    let cpu_after = server_cpu()?;
    plain.stop()?;
    let plain_p50 = stats::percentile(&phase.latencies_ms(), 50.0);
    let (mut attempted, mut failed) = (phase.attempted, phase.failed);
    values.extend(timing_layers(&phase));
    if let (Some(a), Some(b)) = (cpu_before, cpu_after) {
        let per_item_us = |secs: f64| ratio(secs * 1e6, phase.items() as f64);
        // Server CPU outside the threads that serve requests, where no
        // span is recorded: the reactor's sweeps, framing and socket I/O,
        // and the stream and reload threads.
        let outside = (b.total - a.total) - (b.requests - a.requests);
        values.insert("serve.unattributed_us_per_item", per_item_us(outside));
        values.insert(
            "serve.reactor.cpu_us_per_item",
            per_item_us(b.reactor - a.reactor),
        );
    }

    let slow_log = out.join(format!("{}.server.jsonl", w.name()));
    match fs::remove_file(&slow_log) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    let slow_log_arg = slow_log.to_string_lossy().into_owned();
    let traced_args = ["--metrics", "--slow-ms", "0", "--slow-log", &slow_log_arg];
    let env = setup(w, &work.join("traced"), &inputs.scale, &traced_args)?;
    inputs.warm_up(&env, &mut answers)?;
    let before = counters(&env)?;
    let (phase, used) = inputs.phase(&env, TRACED_SHARE, &mut answers)?;
    let after = counters(&env)?;
    let sample = inputs.sample(used);
    let (checks, mismatches) = gate(w, &env, &work.join("gate"), &sample, &mut answers)?;
    let repo = env.repo.clone();
    env.stop()?;
    attempted += phase.attempted + checks;
    failed += phase.failed + mismatches;
    let traced_p50 = stats::percentile(&phase.latencies_ms(), 50.0);
    values.insert("trace_overhead_pct", 100.0 * (traced_p50 / plain_p50 - 1.0));
    let delta = |name: &str| {
        after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
    };
    values.extend(counter_layers(delta, phase.items() as f64));
    values.extend(span_layers(&phase, &trace::read_slow_log(&slow_log)?));

    for (name, value) in layers::pipeline(&sample[..sample.len().min(8)])?
        .into_iter()
        .chain(layers::repository(&repo)?)
        .chain(layers::process_spawn(10)?)
    {
        values.insert(name, value);
    }

    let mut jsonl = Vec::new();
    sca_telemetry::write_jsonl(&sca_telemetry::snapshot(), &mut jsonl)?;
    fs::write(out.join(format!("{}.trace.jsonl", w.name())), jsonl)?;
    Ok(RunResult {
        metrics: metrics(&PER_LAYER, &values),
        attempted,
        failed,
    })
}

/// `num / den`, or 0 for an empty denominator.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Layer metrics from an untraced phase: the alarm and reload latencies,
/// and per request the server's `timings` against the client's own clock.
fn timing_layers(phase: &Phase) -> Vec<(&'static str, f64)> {
    let us = |ns: f64| ns / 1e3;
    let items = phase.items() as f64;
    let timed: Vec<&load::Op> = phase.ops.iter().filter(|o| o.timings.is_some()).collect();
    // What the client waited beyond the server's own request time: the
    // reactor noticing the frame, framing, and flushing the answer.
    let gaps: Vec<f64> = timed
        .iter()
        .map(|o| us(o.latency_ns as f64 - o.lag_ns as f64 - o.stage_ns("total_ns")))
        .collect();
    let waits: Vec<f64> = timed
        .iter()
        .map(|o| us(o.stage_ns("queue_wait_ns")))
        .collect();
    let stage = |key: &str| ratio(us(timed.iter().map(|o| o.stage_ns(key)).sum()), items);
    vec![
        ("serve.reactor.gap_p50_us", stats::percentile(&gaps, 50.0)),
        ("serve.reactor.gap_tail_us", stats::percentile(&gaps, TAIL)),
        ("serve.queue.wait_p50_us", stats::percentile(&waits, 50.0)),
        ("serve.queue.wait_tail_us", stats::percentile(&waits, TAIL)),
        ("serve.worker.model_us_per_item", stage("model_ns")),
        ("serve.worker.scan_us_per_item", stage("scan_ns")),
        ("serve.worker.render_us_per_item", stage("render_ns")),
        (
            "generator.lag_tail_ms",
            stats::percentile(&lag_ms(phase), TAIL),
        ),
        ("time_to_alarm_ms", stats::median(&phase.alarms_ms)),
        ("reload_p50_ms", stats::median(&phase.reloads_ms)),
    ]
}

/// Layer metrics from the server's counters, `delta` giving each
/// counter's growth over the traced phase.
fn counter_layers(delta: impl Fn(&str) -> f64, items: f64) -> Vec<(&'static str, f64)> {
    let share = |hits: &str, misses: &str| ratio(delta(hits), delta(hits) + delta(misses));
    let (cells, pruned) = (delta("dtw.cells"), delta("dtw.cells_pruned"));
    vec![
        (
            "builder.hit_ratio",
            share("modelcache.hits", "modelcache.misses"),
        ),
        (
            "simcache.hit_ratio",
            share("simcache.hits", "simcache.misses"),
        ),
        ("dtw.cells_per_item", ratio(cells, items)),
        ("dtw.prune_ratio", ratio(pruned, cells + pruned)),
        (
            "index.skipped_per_item",
            ratio(delta("index.entries_skipped"), items),
        ),
        (
            "index.full_dtw_per_item",
            ratio(delta("index.full_dtw_runs"), items),
        ),
        (
            "cpu.instructions_per_item",
            ratio(delta("cpu.instructions_retired"), items),
        ),
    ]
}

/// The `trace.<span>_self_us` metrics: each span's self time per item,
/// summed over the traced requests that joined a dumped span tree.
fn span_layers(
    phase: &Phase,
    dumped: &BTreeMap<u64, trace::SelfTimes>,
) -> Vec<(&'static str, f64)> {
    let mut self_ns: BTreeMap<&str, f64> = BTreeMap::new();
    let mut joined_items = 0.0;
    for op in &phase.ops {
        if let Some(request) = dumped.get(&op.trace_id) {
            joined_items += op.items as f64;
            for (name, &ns) in request {
                *self_ns.entry(name.as_str()).or_default() += ns as f64;
            }
        }
    }
    PER_LAYER
        .iter()
        .filter_map(|&(metric, _)| {
            let span = metric.strip_prefix("trace.")?.strip_suffix("_self_us")?;
            let ns = self_ns.get(span).copied().unwrap_or(0.0);
            Some((metric, ratio(ns / 1e3, joined_items)))
        })
        .collect()
}

/// The server's telemetry counters (none for `oneshot`, which has no
/// server).
fn counters(env: &Env) -> io::Result<BTreeMap<String, f64>> {
    let Some(server) = &env.server else {
        return Ok(BTreeMap::new());
    };
    let response = load::connect(&server.addr)?.metrics()?;
    let Some(Json::Obj(counters)) = response.get("metrics").and_then(|m| m.get("counters")) else {
        return Err(io::Error::other(format!("no counters in {response}")));
    };
    Ok(counters
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect())
}

/// The commit the checkout is at, read from `.git` without running git
/// ("unknown" outside a git checkout).
fn commit() -> String {
    let read = |p: &str| fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|h| h.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                l.strip_suffix(reference)?
                    .split_whitespace()
                    .next()
                    .map(String::from)
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    runs: usize,
    trace: bool,
    out: PathBuf,
    smoke: bool,
}

const USAGE: &str = "usage:
  scabench [--workload NAME]... [--seed N] [--seconds 10] [--runs N]
           [--trace 0|1] [--out DIR] [--smoke]
  scabench compare A.json B.json
workloads: interactive bulk-fresh large-repo watch oneshot (default: all)";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        runs: 1,
        trace: false,
        out: PathBuf::from("target/scabench"),
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workloads
                    .push(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            // The phase length is fixed, so that two commits are always
            // measured alike; a caller may still state it.
            "--seconds" => {
                let v = value()?;
                if v.parse::<f64>() != Ok(PHASE_SECONDS) {
                    return Err(format!("the timed phase is {PHASE_SECONDS} s, not {v}"));
                }
            }
            "--runs" => a.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    if a.workloads.is_empty() {
        a.workloads = Workload::ALL.to_vec();
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare::main(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scabench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("scabench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run every requested workload `runs` times (seeds `seed`, `seed + 1`,
/// ...), report, and return whether every operation succeeded.
fn bench(args: &Args) -> io::Result<bool> {
    proc::scaguard_bin()?;
    fs::create_dir_all(&args.out)?;
    let mut report = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut last: Vec<(String, Metric)> = Vec::new();
    for &w in &args.workloads {
        let mut runs: Vec<Vec<Metric>> = Vec::new();
        let (mut w_attempted, mut w_failed) = (0, 0);
        for r in 0..args.runs {
            let seed = args.seed + r as u64;
            let scale = Scale::new(args.smoke, w);
            let result = run(w, seed, scale, args.trace, &args.out)?;
            for m in &result.metrics {
                println!("{} {} {} {}", w.name(), m.name, m.value, m.unit);
            }
            w_attempted += result.attempted;
            w_failed += result.failed;
            runs.push(result.metrics);
        }
        attempted += w_attempted;
        failed += w_failed;
        let summary = compare::summarize(w.name(), &runs, w_attempted, w_failed);
        for m in &runs[0] {
            let values: Vec<f64> = runs.iter().map(|r| value_of(r, &m.name)).collect();
            let name = if args.workloads.len() > 1 {
                format!("{}.{}", w.name(), m.name)
            } else {
                m.name.clone()
            };
            last.push((
                name,
                Metric {
                    value: stats::median(&values),
                    ..m.clone()
                },
            ));
        }
        report.push(summary);
    }
    let results = Json::Obj(vec![
        ("commit".into(), Json::Str(commit())),
        (
            "nproc".into(),
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(PHASE_SECONDS)),
        ("trace".into(), Json::Bool(args.trace)),
        ("smoke".into(), Json::Bool(args.smoke)),
        ("workloads".into(), Json::Arr(report)),
    ]);
    fs::write(args.out.join("results.json"), format!("{results}\n"))?;
    let metric_json = |m: &Metric| {
        Json::Obj(vec![
            ("value".into(), Json::Num(m.value)),
            ("unit".into(), Json::Str(m.unit.into())),
        ])
    };
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                last.iter()
                    .map(|(n, m)| (n.clone(), metric_json(m)))
                    .collect(),
            ),
        ),
    ]);
    println!("{line}");
    Ok(failed == 0)
}

fn value_of(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: Option<&Json>, keys: &[&str]) -> Vec<Vec<String>> {
        let Some(Json::Arr(items)) = list else {
            panic!("missing list");
        };
        items
            .iter()
            .map(|m| {
                keys.iter()
                    .map(|k| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("string field")
                            .to_string()
                    })
                    .collect()
            })
            .collect()
    }

    /// `BENCHMARK.json` at the repository root. The manifest is this
    /// directory's or `sca-bench`'s; the file sits above both.
    pub(super) fn benchmark_json() -> Json {
        let text = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find_map(|dir| fs::read_to_string(dir.join("BENCHMARK.json")).ok())
            .expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("valid JSON")
    }

    fn table(t: &[(&str, &str)]) -> Vec<Vec<String>> {
        t.iter()
            .map(|(n, u)| vec![n.to_string(), u.to_string()])
            .collect()
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// workloads and metrics this binary reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let spec = benchmark_json();
        let workloads: Vec<Vec<String>> = Workload::ALL
            .iter()
            .map(|w| vec![w.name().to_string()])
            .collect();
        assert_eq!(names(spec.get("workloads"), &["name"]), workloads);
        let unit = ["name", "unit"];
        assert_eq!(names(spec.get("end_to_end"), &unit), table(&END_TO_END));
        assert_eq!(names(spec.get("per_layer"), &unit), table(&PER_LAYER));
    }

    #[test]
    fn arguments_parse() {
        let args: Vec<String> = "--workload watch --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&args).unwrap();
        assert_eq!(a.workloads, vec![Workload::Watch]);
        assert_eq!((a.seed, a.trace, a.runs), (7, true, 1));
        assert_eq!(parse_args(&[]).unwrap().workloads.len(), 5);
        for bad in ["--trace 2", "--workload nope", "--seconds 20", "--bogus"] {
            let args: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&args).is_err(), "{bad}");
        }
    }
}

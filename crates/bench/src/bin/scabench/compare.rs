//! `results.json` summaries and `scabench compare A.json B.json`.
//!
//! `compare` judges B (the change) against A (the parent) per workload
//! and end-to-end metric with [`stats::verdict`], using the direction
//! `BENCHMARK.json` fixes for the metric and its bound there, or the
//! tighter one [`WORKLOAD_BOUNDS`] holds for the workload. Per-layer
//! metrics are listed for attribution without a verdict. It exits nonzero
//! when any metric is worse or the share of failed operations rose.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

use sca_telemetry::Json;

use crate::stats::{self, Verdict};
use crate::workload::TAIL;
use crate::Metric;

/// The `results.json` entry for one workload: each metric's value per
/// run, with median and quartiles.
pub fn summarize(workload: &str, runs: &[Vec<Metric>], attempted: u64, failed: u64) -> Json {
    let metrics = runs[0]
        .iter()
        .map(|m| {
            let values: Vec<f64> = runs.iter().map(|r| crate::value_of(r, &m.name)).collect();
            let [q1, median, q3] = stats::quartiles(&values);
            let entry = Json::Obj(vec![
                ("unit".into(), Json::Str(m.unit.into())),
                (
                    "runs".into(),
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ),
                ("median".into(), Json::Num(median)),
                ("q1".into(), Json::Num(q1)),
                ("q3".into(), Json::Num(q3)),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    Json::Obj(vec![
        ("name".into(), Json::Str(workload.into())),
        ("tail_percentile".into(), Json::Num(TAIL)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// Bounds tighter than the one `BENCHMARK.json` fixes for a metric on
/// every workload: for these workload × metric pairs max(5%, 2 × relative
/// IQR over the ten-seed baseline in README.md) is smaller. The file's
/// bound is set by the noisiest workload; these keep a regression on a
/// steady one from reading "same".
const WORKLOAD_BOUNDS: [(&str, &str, f64); 8] = [
    ("interactive", "latency_p50_ms", 0.05),
    ("interactive", "latency_tail_ms", 0.05),
    ("interactive", "items_per_s", 0.05),
    ("bulk-fresh", "latency_tail_ms", 0.19),
    ("watch", "latency_p50_ms", 0.05),
    ("watch", "latency_tail_ms", 0.10),
    ("watch", "items_per_s", 0.05),
    ("oneshot", "latency_tail_ms", 0.20),
];

/// The bound `compare` judges `metric` on `workload` by.
fn bound_for(workload: &str, metric: &str, file_bound: f64) -> f64 {
    WORKLOAD_BOUNDS
        .iter()
        .find(|&&(w, m, _)| w == workload && m == metric)
        .map_or(file_bound, |&(_, _, b)| b.min(file_bound))
}

/// Direction and bound of each end-to-end metric in `BENCHMARK.json`.
fn bounds(benchmark: &Json) -> BTreeMap<String, (bool, f64)> {
    let Some(Json::Arr(metrics)) = benchmark.get("end_to_end") else {
        return BTreeMap::new();
    };
    metrics
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            let higher = m.get("better")?.as_str()? == "higher";
            Some((name, (higher, m.get("bound")?.as_f64()?)))
        })
        .collect()
}

fn load(path: &Path) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workloads(results: &Json) -> Vec<&Json> {
    match results.get("workloads") {
        Some(Json::Arr(w)) => w.iter().collect(),
        _ => Vec::new(),
    }
}

fn runs(metric: &Json) -> Vec<f64> {
    match metric.get("runs") {
        Some(Json::Arr(v)) => v.iter().filter_map(Json::as_f64).collect(),
        _ => Vec::new(),
    }
}

fn fail_ratio(workload: &Json) -> f64 {
    let get = |k: &str| workload.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    get("failed") / get("attempted").max(1.0)
}

fn spread(values: &[f64]) -> String {
    let [q1, median, q3] = stats::quartiles(values);
    format!("{median:.4} [{q1:.4}, {q3:.4}]")
}

pub fn main(a: &Path, b: &Path) -> ExitCode {
    match compare(a, b) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("scabench compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// Print the comparison table; true when nothing regressed.
fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let bounds = bounds(&load(Path::new("BENCHMARK.json"))?);
    let (a, b) = (load(a)?, load(b)?);
    let mut ok = true;
    println!(
        "workload metric unit | A median [q1, q3] | B median [q1, q3] | change | bound | verdict"
    );
    for wa in workloads(&a) {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = workloads(&b)
            .into_iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        let (Some(Json::Obj(ma)), Some(mb)) = (wa.get("metrics"), wb.get("metrics")) else {
            continue;
        };
        for (metric, va) in ma {
            let Some(vb) = mb.get(metric) else { continue };
            let (ra, rb) = (runs(va), runs(vb));
            let unit = va.get("unit").and_then(Json::as_str).unwrap_or("");
            let (ma_, mb_) = (stats::median(&ra), stats::median(&rb));
            let change = if ma_ != 0.0 {
                format!("{:+.1}%", 100.0 * (mb_ - ma_) / ma_.abs())
            } else {
                "-".into()
            };
            let (bound, verdict) = match bounds.get(metric) {
                Some(&(higher, file_bound)) => {
                    let bound = bound_for(name, metric, file_bound);
                    let v = stats::verdict(&ra, &rb, higher, bound);
                    ok &= v != Verdict::Worse;
                    (format!("{:.0}%", 100.0 * bound), v.as_str())
                }
                None => ("-".into(), "n/a"),
            };
            println!(
                "{name} {metric} {unit} | {} | {} | {change} | {bound} | {verdict}",
                spread(&ra),
                spread(&rb)
            );
        }
        let (fa, fb) = (fail_ratio(wa), fail_ratio(wb));
        let verdict = if fb > fa { "worse" } else { "same" };
        ok &= fb <= fa;
        println!("{name} fail_ratio fraction | {fa} | {fb} | - | 0 | {verdict}");
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    /// Each tighter bound names a workload and an end-to-end metric, keeps
    /// the 5% floor, and is tighter than the bound in `BENCHMARK.json`.
    #[test]
    fn workload_bounds_tighten_the_file() {
        let file = bounds(&crate::tests::benchmark_json());
        for (w, m, b) in WORKLOAD_BOUNDS {
            assert!(Workload::parse(w).is_some(), "{w}");
            let (_, file_bound) = file[m];
            assert!((0.05..file_bound).contains(&b), "{w} {m} {b}");
            assert_eq!(bound_for(w, m, file_bound), b);
        }
        assert_eq!(bound_for("large-repo", "latency_p50_ms", 0.25), 0.25);
    }
}

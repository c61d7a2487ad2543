//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```sh
//! cargo run --release -p sca-eval --bin tables -- --all --scale 40
//! cargo run --release -p sca-eval --bin tables -- --table 6 --paper
//! ```
//!
//! `--scale N` uses N mutated variants per attack type and N benign
//! programs; `--paper` is shorthand for the paper's 400/400. Beyond the
//! paper, `--robustness` prints detection under microarchitectural noise
//! and `--streaming` the online detector's alarm latency per family and
//! its (τ, k) alarm-policy sweep; `--all` includes both.

use std::process::ExitCode;

use sca_eval::experiments::{
    bb_identification, classification, noise_robustness, scenario_similarities, streaming_latency,
    threshold_sweep, timing, ClassTask, TaskResult,
};
use sca_eval::report::{self, pct, render_table};
use sca_eval::EvalConfig;

struct Args {
    tables: Vec<u32>,
    figure5: bool,
    timing: bool,
    robustness: bool,
    streaming: bool,
    scale: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut tables = Vec::new();
    let mut figure5 = false;
    let mut want_timing = false;
    let mut robustness = false;
    let mut streaming = false;
    let mut scale = 40usize;
    let mut all = false;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--all" => all = true,
            "--figure" => {
                let n = argv.next().ok_or("--figure needs a number")?;
                if n != "5" {
                    return Err(format!("unknown figure {n} (the paper has Fig. 5)"));
                }
                figure5 = true;
            }
            "--table" => {
                let n = argv
                    .next()
                    .ok_or("--table needs a number")?
                    .parse::<u32>()
                    .map_err(|e| e.to_string())?;
                if !(1..=6).contains(&n) {
                    return Err(format!("unknown table {n} (the paper has I–VI)"));
                }
                tables.push(n);
            }
            "--timing" => want_timing = true,
            "--robustness" => robustness = true,
            "--streaming" => streaming = true,
            "--scale" => {
                scale = argv
                    .next()
                    .ok_or("--scale needs a number")?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?;
            }
            "--paper" => scale = 400,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if all || (tables.is_empty() && !figure5 && !want_timing && !robustness && !streaming) {
        tables = vec![1, 2, 3, 4, 5, 6];
        figure5 = true;
        want_timing = true;
        robustness = true;
        streaming = true;
    }
    Ok(Args {
        tables,
        figure5,
        timing: want_timing,
        robustness,
        streaming,
        scale,
    })
}

fn print_table_iv(cfg: &EvalConfig) -> Result<(), Box<dyn std::error::Error>> {
    let rows = bb_identification(cfg)?;
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.family
                    .map(|f| f.abbrev().to_string())
                    .unwrap_or_else(|| "Avg.".into()),
                r.stats.total.to_string(),
                r.stats.ground_truth.to_string(),
                r.stats.identified.to_string(),
                r.stats.identified_truth.to_string(),
                pct(r.accuracy()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "TABLE IV: results of attack-relevant BB identification",
            &["Attack", "#BB", "#TAB", "#IAB", "#ITAB", "Accuracy"],
            &body,
        )
    );
    Ok(())
}

fn print_table_v(cfg: &EvalConfig) -> Result<(), Box<dyn std::error::Error>> {
    let rows = scenario_similarities(cfg)?;
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.id.to_string(),
                r.pair.clone(),
                r.description.to_string(),
                pct(r.score),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "TABLE V: similarity comparison of 5 typical scenarios",
            &["No.", "Scenario", "Description", "Score"],
            &body,
        )
    );
    Ok(())
}

fn print_confusion(result: &TaskResult) {
    use sca_eval::metrics::ConfusionMatrix;
    let labels: Vec<String> = (0..5)
        .map(|c| ConfusionMatrix::label_of(c).to_string())
        .collect();
    let mut rows = Vec::new();
    for e in 0..5 {
        let expected = ConfusionMatrix::label_of(e);
        let mut row = vec![expected.to_string()];
        for p in 0..5 {
            row.push(
                result
                    .confusion
                    .count(expected, ConfusionMatrix::label_of(p))
                    .to_string(),
            );
        }
        rows.push(row);
    }
    let header: Vec<&str> = std::iter::once("truth \\ predicted")
        .chain(labels.iter().map(String::as_str))
        .collect();
    println!(
        "{}",
        render_table(
            &format!(
                "Confusion matrix — {} on {} (accuracy {})",
                result.approach,
                ClassTask::title(result.task),
                pct(result.confusion.accuracy())
            ),
            &header,
            &rows,
        )
    );
}

fn print_table_vi(cfg: &EvalConfig) -> Result<(), Box<dyn std::error::Error>> {
    let results = classification(cfg)?;
    for task in ClassTask::ALL {
        let rows: Vec<&TaskResult> = results.iter().filter(|r| r.task == task).collect();
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.approach.clone(),
                    pct(r.scores.precision()),
                    pct(r.scores.recall()),
                    pct(r.scores.f1()),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &format!("TABLE VI ({}): classification results", task.title()),
                &["Approach", "Precision", "Recall", "F1-score"],
                &body,
            )
        );
    }
    // Per-class detail for the headline task.
    if let Some(r) = results
        .iter()
        .find(|r| r.task == ClassTask::E1 && r.approach == "SCAGuard")
    {
        print_confusion(r);
    }
    Ok(())
}

fn print_figure_5(cfg: &EvalConfig) -> Result<(), Box<dyn std::error::Error>> {
    let points = threshold_sweep(cfg)?;
    let body: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let plateau = if p.precision > 0.9 && p.recall > 0.9 && p.f1 > 0.9 {
                "yes"
            } else {
                ""
            };
            vec![
                format!("{:.0}%", p.threshold * 100.0),
                pct(p.precision),
                pct(p.recall),
                pct(p.f1),
                plateau.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "FIG. 5: classification results of SCAGuard by varying the threshold",
            &[
                "Threshold",
                "Precision",
                "Recall",
                "F1-Score",
                ">90% plateau"
            ],
            &body,
        )
    );
    Ok(())
}

fn print_timing(cfg: &EvalConfig) -> Result<(), Box<dyn std::error::Error>> {
    let rows = timing(cfg)?;
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.approach.clone(),
                format!("{:.4}", r.train_secs),
                format!("{:.4}", r.detect_secs),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Section V (time cost): per-approach training and detection time",
            &["Approach", "Train (s)", "Detect/sample (s)"],
            &body,
        )
    );
    Ok(())
}

fn print_robustness(cfg: &EvalConfig) -> Result<(), Box<dyn std::error::Error>> {
    let rows = noise_robustness(cfg)?;
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                pct(r.scores.precision()),
                pct(r.scores.recall()),
                pct(r.scores.f1()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Robustness (beyond the paper): SCAGuard under microarchitectural noise",
            &["Scenario", "Precision", "Recall", "F1-score"],
            &body,
        )
    );
    Ok(())
}

fn print_streaming(cfg: &EvalConfig) -> Result<(), Box<dyn std::error::Error>> {
    let report = streaming_latency(cfg)?;
    let families: Vec<Vec<String>> = report
        .families
        .iter()
        .map(|r| {
            vec![
                r.family.abbrev().to_string(),
                format!("{}/{}", r.detected, r.total),
                format!("{:.0}", r.mean_steps_to_alarm),
                pct(r.mean_trace_fraction),
                format!("{:.0}", r.mean_trace_steps),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Streaming (beyond the paper): alarm latency per family at the default policy",
            &[
                "Attack",
                "Detected",
                "Steps to alarm",
                "Of trace",
                "Trace steps"
            ],
            &families,
        )
    );
    let sweep: Vec<Vec<String>> = report
        .sweep
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.threshold),
                p.sustain.to_string(),
                format!("{}/{}", p.detected, p.attack_total),
                format!("{}/{}", p.false_alarms, p.benign_total),
                format!("{:.0}", p.mean_steps_to_alarm),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Streaming (beyond the paper): the (tau, k) alarm-policy sweep",
            &["tau", "k", "Detected", "False alarms", "Steps to alarm"],
            &sweep,
        )
    );
    Ok(())
}

fn run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let cfg = EvalConfig::small(args.scale);
    println!(
        "SCAGuard reproduction — scale: {} variants/type, {} benign, threshold {:.0}%\n",
        cfg.per_type,
        cfg.benign_total,
        cfg.threshold * 100.0
    );
    for t in &args.tables {
        match t {
            1 => println!("{}", report::hpc_events_table()),
            2 => println!("{}", report::attack_dataset_table(cfg.per_type)),
            3 => println!("{}", report::benign_dataset_table(cfg.benign_total)),
            4 => print_table_iv(&cfg)?,
            5 => print_table_v(&cfg)?,
            6 => print_table_vi(&cfg)?,
            _ => unreachable!("validated in parse_args"),
        }
    }
    if args.figure5 {
        print_figure_5(&cfg)?;
    }
    if args.timing {
        print_timing(&cfg)?;
    }
    if args.robustness {
        print_robustness(&cfg)?;
    }
    if args.streaming {
        print_streaming(&cfg)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: tables [--all] [--table N]... [--figure 5] [--timing] [--robustness] [--streaming] [--scale N | --paper]"
            );
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

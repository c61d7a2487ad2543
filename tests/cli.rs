//! End-to-end tests of the `scaguard` command-line tool: build a PoC
//! repository on disk, assemble real programs to `.sasm` files, and drive
//! every subcommand the way a user would.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use sca_attacks::benign::{self, Kind};
use sca_attacks::poc::{self, PocParams};
use sca_attacks::AttackFamily;

fn scaguard(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scaguard"))
        .args(args)
        .output()
        .expect("spawn scaguard")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scaguard-cli-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn write_sasm(dir: &Path, name: &str, program: &sca_isa::Program) -> String {
    let path = dir.join(format!("{name}.sasm"));
    fs::write(&path, sca_isa::to_asm(program)).expect("write sasm");
    path.to_string_lossy().into_owned()
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = scaguard(&[]);
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("usage:"), "usage must be printed: {text}");
}

#[test]
fn help_exits_zero_with_usage_on_stdout() {
    for args in [&["--help"][..], &["-h"], &["help"], &["classify", "--help"]] {
        let out = scaguard(args);
        assert!(out.status.success(), "{args:?} must exit 0");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("usage:"), "{args:?} stdout: {text}");
        // Every subcommand is documented.
        for cmd in [
            "build-repo",
            "classify",
            "model",
            "explain",
            "serve",
            "submit",
            "watch",
            "stats",
            "asm",
        ] {
            assert!(
                text.contains(&format!("scaguard {cmd}")),
                "usage must list `{cmd}`"
            );
        }
    }
}

#[test]
fn version_exits_zero_on_stdout() {
    for args in [&["--version"][..], &["-V"]] {
        let out = scaguard(args);
        assert!(out.status.success(), "{args:?} must exit 0");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.trim().starts_with("scaguard ") && text.contains(env!("CARGO_PKG_VERSION")),
            "{args:?} stdout: {text}"
        );
    }
}

#[test]
fn serve_and_submit_round_trip_matches_offline_classify() {
    use std::io::BufRead;

    let dir = tmp_dir("serve");
    let repo = dir.join("pocs.repo").to_string_lossy().into_owned();
    assert!(scaguard(&["build-repo", &repo]).status.success());
    let fr = poc::flush_reload_mastik(&PocParams::default());
    let fr_path = write_sasm(&dir, "fr-mastik", &fr.program);

    // The offline ground truth.
    let offline = scaguard(&[
        "classify", &fr_path, "--repo", &repo, "--victim", "shared:3", "--json",
    ]);
    assert!(offline.status.success());
    let offline_json = String::from_utf8_lossy(&offline.stdout).trim().to_string();

    // A server on an ephemeral port; it announces the bound address.
    let mut server = Command::new(env!("CARGO_BIN_EXE_scaguard"))
        .args(["serve", &repo, "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut first_line = String::new();
    std::io::BufReader::new(server.stdout.take().expect("stdout"))
        .read_line(&mut first_line)
        .expect("read announcement");
    let addr = first_line
        .trim()
        .strip_prefix("listening on ")
        .expect("announcement format")
        .to_string();

    // `submit --json` must be byte-identical to offline `classify --json`.
    let remote = scaguard(&[
        "submit", &fr_path, "--addr", &addr, "--victim", "shared:3", "--json",
    ]);
    assert!(
        remote.status.success(),
        "submit failed: {}",
        String::from_utf8_lossy(&remote.stderr)
    );
    let remote_json = String::from_utf8_lossy(&remote.stdout).trim().to_string();
    assert_eq!(remote_json, offline_json, "wire and offline output diverge");

    // The human-readable mode prints exactly what offline `classify`
    // prints: the best match, then the verdict.
    let remote = scaguard(&["submit", &fr_path, "--addr", &addr, "--victim", "shared:3"]);
    assert!(
        remote.status.success(),
        "human submit failed: {}",
        String::from_utf8_lossy(&remote.stderr)
    );
    let offline = scaguard(&[
        "classify", &fr_path, "--repo", &repo, "--victim", "shared:3",
    ]);
    assert!(offline.status.success());
    let text = String::from_utf8_lossy(&remote.stdout);
    assert!(text.contains("ATTACK"), "verdict shown: {text}");
    assert_eq!(text, String::from_utf8_lossy(&offline.stdout));

    // submit against a dead port is a clear error, not a hang.
    let out = scaguard(&["submit", &fr_path]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--addr"));

    // Shut the server down over the protocol and reap it.
    let mut client = scaguard_repro::serve::Client::connect(&*addr).expect("connect");
    let resp = client.shutdown().expect("shutdown");
    assert!(sca_serve::protocol::is_ok(&resp));
    let status = server.wait().expect("server exit");
    assert!(status.success(), "serve exited with {status:?}");

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn watch_streams_alarm_early_on_attacks_and_stay_quiet_on_benign() {
    use std::io::BufRead;

    let dir = tmp_dir("watch");
    let repo = dir.join("pocs.repo").to_string_lossy().into_owned();
    assert!(scaguard(&["build-repo", &repo]).status.success());

    let mut server = Command::new(env!("CARGO_BIN_EXE_scaguard"))
        .args(["serve", &repo, "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut first_line = String::new();
    std::io::BufReader::new(server.stdout.take().expect("stdout"))
        .read_line(&mut first_line)
        .expect("read announcement");
    let addr = first_line
        .trim()
        .strip_prefix("listening on ")
        .expect("announcement format")
        .to_string();

    // An enrolled FR PoC alarms before its trace ends, then the final
    // whole-trace verdict confirms the attack.
    let fr = poc::representative(AttackFamily::FlushReload, &PocParams::default());
    let fr_path = write_sasm(&dir, "fr", &fr.program);
    let out = scaguard(&["watch", &fr_path, "--addr", &addr, "--victim", "shared:3"]);
    assert!(
        out.status.success(),
        "watch failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let alarm_at = text.find("ALARM").expect("an alarm line");
    let done_at = text.find("trace complete").expect("a trace-complete line");
    assert!(alarm_at < done_at, "alarm must precede the final verdict");
    assert!(text.contains("ATTACK"), "final verdict missing: {text}");

    // A benign program streams to the end without a single alarm.
    let benign = benign::generate(Kind::Spec, 7);
    let benign_path = write_sasm(&dir, "benign", &benign.program);
    let out = scaguard(&["watch", &benign_path, "--addr", &addr]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("ALARM"), "benign stream alarmed: {text}");
    assert!(text.contains("benign"), "final verdict missing: {text}");

    // watch without --addr is a clear error, not a hang.
    let out = scaguard(&["watch", &fr_path]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--addr"));

    let mut client = scaguard_repro::serve::Client::connect(&*addr).expect("connect");
    let resp = client.shutdown().expect("shutdown");
    assert!(sca_serve::protocol::is_ok(&resp));
    let status = server.wait().expect("server exit");
    assert!(status.success(), "serve exited with {status:?}");

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = scaguard(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn asm_roundtrips_a_poc() {
    let dir = tmp_dir("asm");
    let s = poc::representative(AttackFamily::FlushReload, &PocParams::default());
    let path = write_sasm(&dir, "fr", &s.program);
    let out = scaguard(&["asm", &path]);
    assert!(
        out.status.success(),
        "asm failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("rdtscp"), "disassembly shown: {text}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn build_classify_model_explain_pipeline() {
    let dir = tmp_dir("pipeline");
    let repo = dir.join("pocs.repo").to_string_lossy().into_owned();

    // 1. build-repo writes a loadable repository
    let out = scaguard(&["build-repo", &repo]);
    assert!(
        out.status.success(),
        "build-repo failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(fs::metadata(&repo).expect("repo file").len() > 0);

    // 2. classify an unseen FR implementation as an attack
    let fr = poc::flush_reload_mastik(&PocParams::default());
    let fr_path = write_sasm(&dir, "fr-mastik", &fr.program);
    let out = scaguard(&[
        "classify", &fr_path, "--repo", &repo, "--victim", "shared:3",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ATTACK"), "attack flagged: {text}");

    // 3. classify a benign program as benign
    let ben = benign::generate(Kind::Crypto, 7);
    let ben_path = write_sasm(&dir, "benign", &ben.program);
    let out = scaguard(&["classify", &ben_path, "--repo", &repo]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("benign"), "benign verdict: {text}");

    // 4. model prints a CST-BBS
    let out = scaguard(&["model", &fr_path, "--victim", "shared:3"]);
    assert!(out.status.success());
    assert!(!out.stdout.is_empty());

    // 5. explain prints a DTW alignment against the best PoC
    let out = scaguard(&["explain", &fr_path, "--repo", &repo, "--victim", "shared:3"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("FR") || text.contains("alignment") || !text.is_empty(),
        "alignment evidence shown: {text}"
    );

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_aligns_against_the_winner_classify_names() {
    let dir = tmp_dir("explain");
    let repo = dir.join("v2.repo").to_string_lossy().into_owned();
    assert!(scaguard(&["build-repo", &repo, "--variants", "2"])
        .status
        .success());
    let fr = poc::flush_reload_mastik(&PocParams::default());
    let ben = benign::generate(Kind::Crypto, 7);
    for (name, program, victim) in [
        ("fr-mastik", &fr.program, "shared:3"),
        ("benign", &ben.program, "none"),
    ] {
        let path = write_sasm(&dir, name, program);
        let out = scaguard(&[
            "classify", &path, "--repo", &repo, "--victim", victim, "--json",
        ]);
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        let obj = sca_telemetry::Json::parse(stdout.trim()).expect("valid JSON object");
        let best_poc = obj
            .get("best_poc")
            .and_then(|v| v.as_str())
            .expect("a best PoC");

        let out = scaguard(&["explain", &path, "--repo", &repo, "--victim", victim]);
        assert!(
            out.status.success(),
            "explain failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        let first = text.lines().next().unwrap_or_default();
        assert!(
            first.starts_with(&format!("best match: {best_poc} (")),
            "{name}: explain must name classify's winner {best_poc}: {first}"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn classify_without_repo_is_a_clear_error() {
    let dir = tmp_dir("norepo");
    let s = poc::representative(AttackFamily::FlushReload, &PocParams::default());
    let path = write_sasm(&dir, "fr", &s.program);
    let out = scaguard(&["classify", &path]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--repo"),
        "error must point at the missing --repo"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn classify_timings_include_the_open_and_leave_stdout_unchanged() {
    let dir = tmp_dir("timings");
    let repo = dir.join("pocs.repo").to_string_lossy().into_owned();
    assert!(scaguard(&["build-repo", &repo]).status.success());
    let fr = poc::flush_reload_mastik(&PocParams::default());
    let fr_path = write_sasm(&dir, "fr-mastik", &fr.program);
    let args = [
        "classify", &fr_path, "--repo", &repo, "--victim", "shared:3", "--json",
    ];
    let plain = scaguard(&args);
    let timed = scaguard(&[&args[..], &["--timings"]].concat());
    assert!(plain.status.success() && timed.status.success());
    assert_eq!(plain.stdout, timed.stdout, "--timings leaves stdout alone");

    // `timings: open=<ms>ms model=<ms>ms scan=<ms>ms render=<ms>ms total=<ms>ms`
    let stderr = String::from_utf8_lossy(&timed.stderr);
    let line = stderr
        .lines()
        .find_map(|l| l.strip_prefix("timings: "))
        .unwrap_or_else(|| panic!("no timings line: {stderr}"));
    let pairs: Vec<(&str, f64)> = line
        .split_whitespace()
        .map(|part| {
            let (name, value) = part.split_once('=').expect("stage=value");
            let ms = value.strip_suffix("ms").expect("ms unit");
            (name, ms.parse().expect("a number"))
        })
        .collect();
    let names: Vec<&str> = pairs.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        names,
        ["open", "model", "scan", "render", "total"],
        "{line}"
    );
    assert!(pairs[0].1 > 0.0, "the open is timed: {line}");
    let (stages, total) = (&pairs[..4], pairs[4].1);
    let sum: f64 = stages.iter().map(|(_, ms)| ms).sum();
    // Each printed value is rounded to 0.001 ms.
    assert!(
        (sum - total).abs() <= 0.003,
        "total is the sum of the stages: {line}"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_whitespace_edited_repository_is_reindexed_with_identical_detections() {
    let dir = tmp_dir("whitespace");
    let repo = dir.join("pocs.repo").to_string_lossy().into_owned();
    assert!(scaguard(&["build-repo", &repo, "--variants", "2"])
        .status
        .success());
    let fr = poc::flush_reload_mastik(&PocParams::default());
    let fr_path = write_sasm(&dir, "fr-mastik", &fr.program);
    let args = [
        "classify", &fr_path, "--repo", &repo, "--victim", "shared:3", "--json",
    ];
    let before = scaguard(&args);
    assert!(before.status.success());
    let stderr = String::from_utf8_lossy(&before.stderr);
    assert!(
        !stderr.contains("index:"),
        "the sidecar build-repo wrote is accepted: {stderr}"
    );

    // A blank line after the header: the same models, other bytes.
    let text = fs::read_to_string(&repo).expect("repo text");
    fs::write(&repo, text.replacen('\n', "\n\n", 1)).expect("edit repo");
    let after = scaguard(&args);
    assert!(after.status.success());
    let stderr = String::from_utf8_lossy(&after.stderr);
    assert!(
        stderr.contains("is stale") && stderr.contains("rebuilding in memory"),
        "the edited file reads as stale: {stderr}"
    );
    assert_eq!(
        String::from_utf8_lossy(&before.stdout),
        String::from_utf8_lossy(&after.stdout),
        "the rebuilt index detects identically"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_threshold_and_bad_victim_are_rejected() {
    let out = scaguard(&["classify", "x.sasm", "--threshold", "nope"]);
    assert!(!out.status.success());
    let out = scaguard(&["classify", "x.sasm", "--victim", "wat"]);
    assert!(!out.status.success());
}

/// A `classify --telemetry` trace: exactly one root `detect` span, and
/// every span of the six pipeline stages under it with a nonzero duration.
fn assert_detect_trace(text: &str) {
    let spans: Vec<sca_telemetry::SpanRecord> = text
        .lines()
        .filter_map(
            |line| match sca_telemetry::parse_line(line).expect("every line parses") {
                sca_telemetry::Record::Span(s) => Some(s),
                _ => None,
            },
        )
        .collect();
    let roots: Vec<&sca_telemetry::SpanRecord> = spans
        .iter()
        .filter(|s| s.name == "detect" && s.parent.is_none())
        .collect();
    assert_eq!(roots.len(), 1, "one root detect span");
    let root_of = |span: &sca_telemetry::SpanRecord| {
        let mut id = span.id;
        while let Some(parent) = spans.iter().find(|s| s.id == id).and_then(|s| s.parent) {
            id = parent;
        }
        id
    };
    for s in &spans {
        assert!(s.duration_ns > 0, "span {} has zero duration", s.name);
    }
    for stage in [
        "pipeline.execute",
        "pipeline.collect",
        "pipeline.model.relevant_bb",
        "pipeline.model.graph",
        "pipeline.model.cst_replay",
        "pipeline.compare.dtw",
    ] {
        let mut found = false;
        for s in spans.iter().filter(|s| s.name == stage) {
            found = true;
            assert_eq!(root_of(s), roots[0].id, "stage {stage} not under detect");
        }
        assert!(found, "stage {stage} missing from telemetry trace");
    }
}

#[test]
fn json_and_telemetry_outputs() {
    let dir = tmp_dir("telemetry");
    let repo = dir.join("pocs.repo").to_string_lossy().into_owned();
    assert!(scaguard(&["build-repo", &repo]).status.success());

    let fr = poc::flush_reload_mastik(&PocParams::default());
    let fr_path = write_sasm(&dir, "fr-mastik", &fr.program);
    let jsonl = dir.join("run.jsonl").to_string_lossy().into_owned();

    // --json emits one parseable object with the detection
    let out = scaguard(&[
        "classify",
        &fr_path,
        "--repo",
        &repo,
        "--victim",
        "shared:3",
        "--json",
        "--telemetry",
        &jsonl,
    ]);
    assert!(
        out.status.success(),
        "classify --json failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let obj = sca_telemetry::Json::parse(stdout.trim()).expect("valid JSON object");
    assert_eq!(
        obj.get("attack")
            .map(|v| v == &sca_telemetry::Json::Bool(true)),
        Some(true)
    );
    assert!(obj.get("family").and_then(|v| v.as_str()).is_some());
    assert!(obj.get("best_score").and_then(|v| v.as_f64()).is_some());
    assert!(obj.get("best_poc").and_then(|v| v.as_str()).is_some());
    assert!(
        obj.get("scores").is_none(),
        "a detection carries no per-entry scores: {stdout}"
    );

    // --telemetry wrote valid JSONL with a root detect span and all six
    // pipeline stages under it
    assert_detect_trace(&fs::read_to_string(&jsonl).expect("telemetry file"));
    // ... and so does the --timings path, which times the model build and
    // the scan inside the same root span.
    let timed_jsonl = dir.join("timed.jsonl").to_string_lossy().into_owned();
    let out = scaguard(&[
        "classify",
        &fr_path,
        "--repo",
        &repo,
        "--victim",
        "shared:3",
        "--json",
        "--timings",
        "--telemetry",
        &timed_jsonl,
    ]);
    assert!(
        out.status.success(),
        "classify --timings failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        stdout,
        "--timings changed stdout"
    );
    assert_detect_trace(&fs::read_to_string(&timed_jsonl).expect("telemetry file"));

    // stats summarizes the trace
    let out = scaguard(&["stats", &jsonl]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("detect"),
        "stats lists the detect span: {text}"
    );
    assert!(text.contains("counters"), "stats lists counters: {text}");

    fs::remove_dir_all(&dir).ok();
}

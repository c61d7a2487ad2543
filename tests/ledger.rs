//! The work ledger: counts of scan work that repeat exactly on any
//! machine, pinned per program.
//!
//! A `--variants 2` repository classifies a fixed set of seeded programs
//! that are in no repository, each in its own `scaguard classify --json
//! --telemetry` process. For every program the test pins the stdout byte
//! count and five counters from the child's JSONL: `index.full_dtw_runs`,
//! `index.entries_skipped`, `dtw.cells`, `simcache.misses` (the `D_IS`
//! instruction-distance cache misses) and `cpu.instructions_retired` (the
//! simulated instructions modeling the target ran). Wall-clock speed
//! varies from run to run; these counts do not. A change that moves one of them fails
//! here on any machine, and updates the pins in the same diff with its
//! reason in CHANGES.md.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use sca_attacks::dataset::mutated_family;
use sca_attacks::mutate::MutationConfig;
use sca_attacks::{benign, AttackFamily, Sample};
use sca_telemetry::Record;

/// Seed of the ledger's programs; the enrolled variants use another.
const LEDGER_SEED: u64 = 0x1ed6_e201;

/// The pins, in program order (one mutant per family, then two benign
/// programs): name, stdout bytes, `index.full_dtw_runs`,
/// `index.entries_skipped`, `dtw.cells`, `simcache.misses`,
/// `cpu.instructions_retired`.
type Pin = (&'static str, usize, u64, u64, u64, u64, u64);

const PINNED: [Pin; 6] = [
    ("ledger-0", 123, 2, 9, 348, 212, 849),
    ("ledger-1", 122, 1, 11, 256, 132, 5464),
    ("ledger-2", 128, 1, 9, 388, 197, 1263),
    ("ledger-3", 133, 1, 10, 460, 201, 20076),
    ("ledger-4", 128, 4, 8, 200, 119, 1786),
    ("ledger-5", 129, 5, 7, 396, 174, 1968),
];

fn scaguard(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_scaguard"))
        .args(args)
        .output()
        .expect("spawn scaguard")
}

/// The victim a sample's family attacks, in the CLI's syntax.
fn victim_spec(sample: &Sample) -> &'static str {
    match sample.label.family() {
        Some(AttackFamily::FlushReload) => "shared:3",
        Some(AttackFamily::PrimeProbe) => "conflict:3",
        _ => "none",
    }
}

fn programs() -> Vec<Sample> {
    let mut samples: Vec<Sample> = AttackFamily::ALL
        .iter()
        .flat_map(|&f| mutated_family(f, 1, LEDGER_SEED, &MutationConfig::default()))
        .collect();
    samples.extend(benign::generate_mix(2, LEDGER_SEED));
    samples
}

/// A counter's value in a telemetry JSONL file (0 when absent).
fn counter(jsonl: &str, name: &str) -> u64 {
    jsonl
        .lines()
        .filter_map(
            |line| match sca_telemetry::parse_line(line).expect("a JSONL record") {
                Record::Counter { name: n, value } if n == name => Some(value),
                _ => None,
            },
        )
        .sum()
}

#[test]
fn scan_work_and_output_bytes_match_the_ledger() {
    let dir: PathBuf = std::env::temp_dir().join(format!("scaguard-ledger-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("mkdir");
    let repo = dir.join("v2.repo").to_string_lossy().into_owned();
    let out = scaguard(&["build-repo", &repo, "--variants", "2"]);
    assert!(
        out.status.success(),
        "build-repo failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let samples = programs();
    assert_eq!(samples.len(), PINNED.len());
    let mut measured = Vec::new();
    for (sample, &(name, ..)) in samples.iter().zip(&PINNED) {
        let sasm = dir.join(format!("{name}.sasm"));
        fs::write(&sasm, sca_isa::to_asm(&sample.program)).expect("write sasm");
        let jsonl = dir.join(format!("{name}.jsonl"));
        let out = scaguard(&[
            "classify",
            &sasm.to_string_lossy(),
            "--repo",
            &repo,
            "--victim",
            victim_spec(sample),
            "--json",
            "--telemetry",
            &jsonl.to_string_lossy(),
        ]);
        assert!(
            out.status.success(),
            "classify {name} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = fs::read_to_string(&jsonl).expect("telemetry file");
        measured.push((
            name,
            out.stdout.len(),
            counter(&text, "index.full_dtw_runs"),
            counter(&text, "index.entries_skipped"),
            counter(&text, "dtw.cells"),
            counter(&text, "simcache.misses"),
            counter(&text, "cpu.instructions_retired"),
        ));
    }
    fs::remove_dir_all(&dir).ok();
    assert_eq!(measured, PINNED, "scan work moved off the ledger");
}

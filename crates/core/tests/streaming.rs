//! Prefix-identity property of streaming modeling (DESIGN.md §17): for a
//! varied set of programs — PoCs, mutated variants, benign generators —
//! and **every** prefix split point, the incrementally grown CST-BBS is
//! byte-identical to a batch build cut off at the same prefix, whether
//! the batch side is built directly, through a [`ModelBuilder`] at 1
//! job, or through one at N jobs; and over one PoC's whole trace, at the
//! increment sizes a stream uses.

use sca_attacks::mutate::{mutate, MutationConfig};
use sca_attacks::poc::{self, PocParams};
use sca_attacks::AttackFamily;
use sca_cpu::Victim;
use sca_isa::Program;
use scaguard::persist::model_text;
use scaguard::stream::StreamingModeler;
use scaguard::{build_model, ModelBuilder, ModelingConfig};

/// Step cap for the property runs: small enough that checking every
/// split point stays fast, large enough that every program's model goes
/// through several distinct shapes (empty → first relevant block →
/// grown graph).
const STEP_CAP: u64 = 160;

fn cases() -> Vec<(Program, Victim)> {
    let params = PocParams::default();
    let mut cases: Vec<(Program, Victim)> = vec![
        {
            let s = poc::representative(AttackFamily::FlushReload, &params);
            (s.program, s.victim)
        },
        {
            let s = poc::representative(AttackFamily::PrimeProbe, &params);
            (s.program, s.victim)
        },
        {
            let s = poc::representative(AttackFamily::SpectreFlushReload, &params);
            let mutated = mutate(&s.program, 0xfeed, &MutationConfig::default());
            (mutated, s.victim)
        },
    ];
    for s in sca_attacks::benign::generate_mix(2, 0x5eed) {
        cases.push((s.program, s.victim));
    }
    cases
}

/// Every prefix of every case: the streaming model equals the batch
/// model bit for bit — both as values and as persisted bytes.
#[test]
fn incremental_model_equals_batch_at_every_prefix() {
    let mut cfg = ModelingConfig::default();
    cfg.cpu.max_steps = STEP_CAP;
    for (program, victim) in cases() {
        let mut modeler = StreamingModeler::begin(&program, &victim, &cfg).expect("nonempty");
        let mut prefixes = 0u64;
        loop {
            let committed = modeler.advance(1);
            prefixes += 1;
            let mut batch_cfg = cfg.clone();
            batch_cfg.cpu.max_steps = modeler.steps();
            let batch = build_model(&program, &victim, &batch_cfg).expect("nonempty");
            let streamed = modeler.model_cst();
            assert_eq!(
                streamed,
                batch.cst_bbs,
                "{}: prefix of {} steps",
                program.name(),
                modeler.steps()
            );
            assert_eq!(
                model_text(&streamed),
                model_text(&batch.cst_bbs),
                "{}: persisted bytes differ at {} steps",
                program.name(),
                modeler.steps()
            );
            if committed == 0 || modeler.is_done() {
                break;
            }
        }
        assert!(
            prefixes > 4,
            "{}: expected several prefixes",
            program.name()
        );
        // Done means done: a further advance commits nothing and leaves
        // the model untouched.
        let last = modeler.model_cst();
        assert_eq!(modeler.advance(16), 0);
        assert_eq!(modeler.model_cst(), last);
    }
}

/// The batch side of the identity is itself job-count-invariant: a
/// builder at 1 job and at N jobs both reproduce the streaming model at
/// sampled prefixes (every split point again would square the cost; the
/// direct-batch test above already covers them all).
#[test]
fn incremental_model_equals_builder_at_1_and_n_jobs() {
    let mut cfg = ModelingConfig::default();
    cfg.cpu.max_steps = STEP_CAP;
    for (program, victim) in cases() {
        let mut modeler = StreamingModeler::begin(&program, &victim, &cfg).expect("nonempty");
        loop {
            let committed = modeler.advance(7);
            let mut prefix_cfg = cfg.clone();
            prefix_cfg.cpu.max_steps = modeler.steps();
            let streamed = modeler.model_cst();
            for jobs in [1usize, 4] {
                let builder = ModelBuilder::new(&prefix_cfg).with_jobs(jobs);
                let batch = builder
                    .build_batch_cst_jobs(&[(&program, &victim)], jobs)
                    .pop()
                    .expect("one target")
                    .expect("nonempty");
                assert_eq!(
                    streamed,
                    *batch,
                    "{}: jobs={jobs} at {} steps",
                    program.name(),
                    modeler.steps()
                );
            }
            if committed == 0 || modeler.is_done() {
                break;
            }
        }
    }
}

/// The whole, uncapped trace of the Flush+Reload PoC, streamed at
/// several increment sizes: at every increment boundary the streamed
/// model persists to the same bytes as the batch model of that prefix.
#[test]
fn incremental_model_equals_batch_over_a_whole_trace() {
    let cfg = ModelingConfig::default();
    let sample = poc::representative(AttackFamily::FlushReload, &PocParams::default());
    for increment in [7u64, 64, 1024] {
        let mut modeler =
            StreamingModeler::begin(&sample.program, &sample.victim, &cfg).expect("nonempty");
        while !modeler.is_done() {
            modeler.advance(increment);
            let steps = modeler.steps();
            let mut batch_cfg = cfg.clone();
            batch_cfg.cpu.max_steps = steps;
            let batch = build_model(&sample.program, &sample.victim, &batch_cfg).expect("nonempty");
            assert_eq!(
                model_text(&modeler.model_cst()),
                model_text(&batch.cst_bbs),
                "prefix model diverges at step {steps} (increment {increment})"
            );
        }
    }
}

//! Streaming online detection (DESIGN.md §17): grow the target's CST-BBS
//! while the program runs, score every prefix against the enrolled
//! repository, and raise an alarm *before* the trace ends.
//!
//! The subsystem has two halves:
//!
//! * [`StreamingModeler`] — incremental modeling. It advances a paused
//!   [`sca_cpu::Execution`] by bounded instruction increments and, on
//!   demand, snapshots the committed prefix's trace and runs the modeling
//!   pipeline over it. Because the post-run pipeline is pure in
//!   `(program, trace, config)` ([`crate::modeling`]), the model at any
//!   prefix is **byte-identical** to a batch [`build_model`] run with
//!   `max_steps` cut at the same prefix — the property test in
//!   `crates/core/tests/streaming.rs` asserts this bit for bit at every
//!   split point. Per-block CST replays are memoized across prefixes, so
//!   re-modeling after each increment only replays blocks whose access
//!   lists actually changed.
//!
//! * [`StreamSession`] — anytime scoring. Each increment re-scans the
//!   repository with [`Detector::scan`], seeding the best-so-far cutoff
//!   ([`ScanRequest::seed`]) with the previous winner's exact distance to
//!   the *current* prefix, maintained cheaply by [`PrefixDtw`]
//!   (append-only prefixes extend the DTW table by new rows instead of
//!   recomputing it). Seeding never changes the result — only how much
//!   of the repository the lower-bound cascade has to touch.
//!
//! **Alarm semantics.** A session holds an alarm threshold τ and a
//! sustain count k: when the best similarity score stays at or above τ
//! for k consecutive increments, the session fires an [`Alarm`] naming
//! the matched PoC and family. The alarm is *latched* — monotone
//! refinement means later increments may update the best match but never
//! retract a fired alarm, so a consumer acting on the first `alarm`
//! event never has to undo anything.
//!
//! [`build_model`]: crate::modeling::build_model

use std::sync::Arc;
use std::time::Instant;

use sca_attacks::AttackFamily;
use sca_cpu::{Execution, Victim};
use sca_isa::Program;

use crate::cst::CstBbs;
use crate::detector::{Detection, Detector, InvalidThreshold, ScanRequest};
use crate::engine::{DeadlineExceeded, PrefixDtw, SimilarityEngine};
use crate::modeling::{
    finish_model, graph_from_trace, model_from_blocks_memo, ModelError, ModelingConfig,
    ModelingOutcome, ReplayMemo,
};

/// Incrementally model a running program: advance the execution by
/// bounded increments, snapshot the committed prefix's model on demand.
///
/// The prefix-identity guarantee: after `advance` has committed `s`
/// steps in total, [`StreamingModeler::model`] equals
/// [`crate::modeling::build_model`] run with `cfg.cpu.max_steps = s`,
/// byte for byte — the execution commits instructions exactly as the
/// batch loop does ([`sca_cpu::Execution`]), and everything downstream
/// of the trace is a pure function of `(program, trace, config)`.
#[derive(Debug)]
pub struct StreamingModeler {
    exec: Execution,
    program: Program,
    config: ModelingConfig,
    memo: ReplayMemo,
}

impl StreamingModeler {
    /// Start modeling `program` against `victim` without running
    /// anything yet.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Run`] for an empty program — the same
    /// rejection batch modeling gives.
    pub fn begin(
        program: &Program,
        victim: &Victim,
        config: &ModelingConfig,
    ) -> Result<StreamingModeler, ModelError> {
        let exec = Execution::begin(config.cpu.clone(), program, victim)?;
        Ok(StreamingModeler {
            exec,
            program: program.clone(),
            config: config.clone(),
            memo: ReplayMemo::default(),
        })
    }

    /// Commit up to `budget` more instructions (stopping early at halt,
    /// the configured step quota, or the program's end). Returns how many
    /// actually committed.
    pub fn advance(&mut self, budget: u64) -> u64 {
        self.exec.advance(budget)
    }

    /// Committed instructions so far.
    pub fn steps(&self) -> u64 {
        self.exec.steps()
    }

    /// Whether the execution can make no further progress.
    pub fn is_done(&self) -> bool {
        self.exec.is_done()
    }

    /// The modeling configuration this stream runs under.
    pub fn config(&self) -> &ModelingConfig {
        &self.config
    }

    /// The model of the committed prefix — the scoring target. Byte-
    /// identical to the batch model of the same prefix, but cheaper to
    /// ask for repeatedly: CST replays are memoized across increments.
    pub fn model_cst(&self) -> CstBbs {
        let tg = graph_from_trace(&self.program, self.exec.trace(), &self.config);
        model_from_blocks_memo(
            &self.program,
            &tg.cfg,
            &tg.trace,
            &tg.relevant,
            &self.config.cst_cache,
            Some(&self.memo),
        )
    }

    /// The full modeling outcome of the committed prefix (intermediate
    /// artifacts included), byte-identical to the batch outcome.
    pub fn model(&self) -> ModelingOutcome {
        let tg = graph_from_trace(&self.program, self.exec.trace(), &self.config);
        finish_model(&self.program, &self.config, tg, Some(&self.memo))
    }

    /// Replays served from the memo / replays actually simulated across
    /// all increments so far.
    pub fn replay_counts(&self) -> (u64, u64) {
        self.memo.counts()
    }
}

/// Early-alarm policy of a [`StreamSession`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Instructions committed per [`StreamSession::push`] when the caller
    /// does not override the budget.
    pub increment: u64,
    /// Alarm threshold τ on the best similarity score.
    ///
    /// Deliberately *higher* than the whole-trace detection threshold:
    /// a short prefix's CST-BBS is only a few blocks, and small models
    /// sit closer to every PoC under DTW, so benign prefixes transiently
    /// score ~0.23–0.24 before settling below the detection threshold.
    /// Attack prefixes, by contrast, cross 0.5 within a handful of
    /// increments (the PoC's relevant blocks appear early and match the
    /// enrolled model exactly). The default sits between the two bands;
    /// `scaguard watch --stream-threshold` and the eval sweep move it.
    pub threshold: f64,
    /// Sustain count k: the score must clear τ for this many
    /// *consecutive* increments before the alarm fires (clamped to at
    /// least 1). Higher k trades detection latency for fewer false
    /// alarms on benign prefixes that transiently look attack-like.
    pub sustain: u32,
}

impl StreamConfig {
    /// The default alarm threshold τ (see [`StreamConfig::threshold`]).
    pub const DEFAULT_THRESHOLD: f64 = 0.35;
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            increment: 64,
            threshold: StreamConfig::DEFAULT_THRESHOLD,
            sustain: 2,
        }
    }
}

/// A fired early alarm. Latched: once a session fires it, no later
/// increment retracts or replaces it.
#[derive(Debug, Clone, PartialEq)]
pub struct Alarm {
    /// Committed instructions when the alarm fired — the stream's
    /// detection latency in instructions.
    pub at_step: u64,
    /// 1-based increment ordinal that fired the alarm.
    pub at_increment: u64,
    /// The matched PoC's attack family.
    pub family: AttackFamily,
    /// The matched PoC's name.
    pub poc: Arc<str>,
    /// The best similarity score at firing time.
    pub score: f64,
}

/// What one [`StreamSession::push`] reports.
#[derive(Debug, Clone)]
pub struct StreamUpdate {
    /// 1-based ordinal of this increment.
    pub increment: u64,
    /// Instructions committed by this push.
    pub committed: u64,
    /// Total committed instructions after this push.
    pub steps: u64,
    /// Best repository match for the current prefix: entry index and
    /// similarity score (`None` for an empty repository).
    pub best: Option<(usize, f64)>,
    /// The best match's PoC name.
    pub best_poc: Option<Arc<str>>,
    /// The best match's family.
    pub best_family: Option<AttackFamily>,
    /// The alarm fired by *this* push, if it is the firing one.
    pub fired: Option<Alarm>,
    /// Whether the execution can make no further progress.
    pub done: bool,
}

/// Bound on the session-local engine's intern pool before it is rebuilt,
/// mirroring the detector's own bound on long-lived scan state.
const POOL_LIMIT: usize = 1 << 16;

/// An online detection session: a [`StreamingModeler`] feeding per-prefix
/// models into seeded repository scans, with a latched early-alarm policy
/// (module docs). The session shares ownership of its detector, so it can
/// outlive the scope that opened it (a server keeps open sessions in a
/// per-connection registry).
#[derive(Debug)]
pub struct StreamSession {
    detector: Arc<Detector>,
    modeler: StreamingModeler,
    threshold: f64,
    sustain: u32,
    increment: u64,
    /// Session-local similarity engine for the prefix-DTW seed. Distances
    /// it computes are bitwise identical to the detector engines' — the
    /// per-cell arithmetic depends only on the models, never on which
    /// engine interned them.
    engine: SimilarityEngine,
    /// The tracked previous winner: entry index plus its rolling
    /// prefix-DTW table against the growing target.
    tracked: Option<(usize, PrefixDtw)>,
    increments: u64,
    streak: u32,
    alarm: Option<Alarm>,
}

impl StreamSession {
    /// Open a session for `program` against `victim`, scored against
    /// `detector`'s repository.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Run`] for an empty program. An explicit
    /// `cfg.threshold` should be validated at the input edge with
    /// [`StreamSession::validate_threshold`]; `begin` only debug-asserts
    /// it.
    pub fn begin(
        detector: Arc<Detector>,
        program: &Program,
        victim: &Victim,
        modeling: &ModelingConfig,
        cfg: &StreamConfig,
    ) -> Result<StreamSession, ModelError> {
        debug_assert!(Self::validate_threshold(cfg).is_ok());
        let modeler = StreamingModeler::begin(program, victim, modeling)?;
        Ok(StreamSession {
            detector,
            modeler,
            threshold: cfg.threshold,
            sustain: cfg.sustain.max(1),
            increment: cfg.increment.max(1),
            engine: SimilarityEngine::new(),
            tracked: None,
            increments: 0,
            streak: 0,
            alarm: None,
        })
    }

    /// Check a config's alarm threshold the same way detector thresholds
    /// are checked, so wire and CLI edges can reject bad input before
    /// opening a session.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidThreshold`] when `cfg.threshold` is outside
    /// `[0, 1]` (NaN included).
    pub fn validate_threshold(cfg: &StreamConfig) -> Result<(), InvalidThreshold> {
        if !(0.0..=1.0).contains(&cfg.threshold) {
            return Err(InvalidThreshold(cfg.threshold));
        }
        Ok(())
    }

    /// Commit one increment (the configured size, or `budget` when
    /// given), re-model the prefix, re-scan the repository, and advance
    /// the alarm state machine.
    ///
    /// # Errors
    ///
    /// Returns [`DeadlineExceeded`] when `deadline` passes mid-scan; the
    /// increment's instructions stay committed, and the caller may push
    /// again with a fresh deadline.
    pub fn push(
        &mut self,
        budget: Option<u64>,
        deadline: Option<Instant>,
    ) -> Result<StreamUpdate, DeadlineExceeded> {
        let committed = self.modeler.advance(budget.unwrap_or(self.increment));
        let target = self.modeler.model_cst();
        let detection = self.scan(&target, deadline)?;
        self.increments += 1;

        let best = detection.best_entry();
        if best.is_some_and(|e| e.score >= self.threshold) {
            self.streak += 1;
        } else {
            self.streak = 0;
        }
        let mut fired = None;
        if self.alarm.is_none() && self.streak >= self.sustain {
            if let Some(e) = best {
                let alarm = Alarm {
                    at_step: self.modeler.steps(),
                    at_increment: self.increments,
                    family: e.family,
                    poc: e.poc.clone(),
                    score: e.score,
                };
                self.alarm = Some(alarm.clone());
                fired = Some(alarm);
            }
        }
        Ok(StreamUpdate {
            increment: self.increments,
            committed,
            steps: self.modeler.steps(),
            best: best.map(|e| (e.index, e.score)),
            best_poc: best.map(|e| e.poc.clone()),
            best_family: best.map(|e| e.family),
            fired,
            done: self.modeler.is_done(),
        })
    }

    /// The detection for the current prefix — the seeded scan's detection,
    /// byte-identical to classifying the prefix's batch model outright.
    ///
    /// # Errors
    ///
    /// Returns [`DeadlineExceeded`] when `deadline` passes mid-scan.
    pub fn detection(&mut self, deadline: Option<Instant>) -> Result<Detection, DeadlineExceeded> {
        let target = self.modeler.model_cst();
        self.scan(&target, deadline)
    }

    /// Seeded scan of the current target, updating the tracked winner and
    /// its prefix-DTW table for the next increment.
    fn scan(
        &mut self,
        target: &CstBbs,
        deadline: Option<Instant>,
    ) -> Result<Detection, DeadlineExceeded> {
        let entries = self.detector.repository().entries();
        if self.engine.pool_len() > POOL_LIMIT {
            self.engine = SimilarityEngine::new();
            if let Some((i, _)) = self.tracked {
                let prepared = self.engine.prepare(&entries[i].model);
                self.tracked = Some((i, PrefixDtw::new(&prepared)));
            }
        }
        let prepared_target = self.engine.prepare(target);
        let seed = match &mut self.tracked {
            Some((i, pd)) => Some((*i, pd.distance_to(&mut self.engine, &prepared_target))),
            None => None,
        };
        let req = ScanRequest {
            seed,
            deadline,
            ..ScanRequest::default()
        };
        let detection = self.detector.scan(target, &req)?;
        if let Some(best) = detection.best_entry() {
            if self.tracked.as_ref().map(|(i, _)| *i) != Some(best.index) {
                // New winner: start a fresh rolling table. It has not
                // seen the current prefix yet — the next increment's
                // seed pays one full recompute, then extends again.
                let prepared = self.engine.prepare(&entries[best.index].model);
                self.tracked = Some((best.index, PrefixDtw::new(&prepared)));
            }
        }
        Ok(detection)
    }

    /// The alarm, if one has fired. Latched: never `Some` then `None`.
    pub fn alarm(&self) -> Option<&Alarm> {
        self.alarm.as_ref()
    }

    /// Increments pushed so far.
    pub fn increments(&self) -> u64 {
        self.increments
    }

    /// Committed instructions so far.
    pub fn steps(&self) -> u64 {
        self.modeler.steps()
    }

    /// Whether the underlying execution can make no further progress.
    pub fn is_done(&self) -> bool {
        self.modeler.is_done()
    }

    /// The effective alarm threshold τ.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The effective sustain count k.
    pub fn sustain(&self) -> u32 {
        self.sustain
    }

    /// The underlying incremental modeler.
    pub fn modeler(&self) -> &StreamingModeler {
        &self.modeler
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::ModelRepository;
    use crate::modeling::build_model;
    use sca_attacks::poc::{self, PocParams};

    fn small_modeling() -> ModelingConfig {
        let mut cfg = ModelingConfig::default();
        cfg.cpu.max_steps = 2_000;
        cfg
    }

    fn enrolled(cfg: &ModelingConfig) -> Arc<Detector> {
        let mut repo = ModelRepository::new();
        for family in AttackFamily::ALL {
            let poc = poc::representative(family, &PocParams::default());
            repo.add_poc(family, &poc.program, &poc.victim, cfg)
                .expect("PoC models");
        }
        Arc::new(Detector::new(repo, Detector::DEFAULT_THRESHOLD).expect("threshold in range"))
    }

    #[test]
    fn streaming_model_matches_batch_prefix() {
        let cfg = small_modeling();
        let poc = poc::representative(AttackFamily::FlushReload, &PocParams::default());
        let mut modeler = StreamingModeler::begin(&poc.program, &poc.victim, &cfg).unwrap();
        let mut budget = 1u64;
        while !modeler.is_done() {
            modeler.advance(budget);
            budget = budget.saturating_mul(2);
            let mut batch_cfg = cfg.clone();
            batch_cfg.cpu.max_steps = modeler.steps();
            let batch = build_model(&poc.program, &poc.victim, &batch_cfg).unwrap();
            assert_eq!(
                modeler.model_cst(),
                batch.cst_bbs,
                "at {} steps",
                modeler.steps()
            );
            assert_eq!(modeler.model().cst_bbs, batch.cst_bbs);
        }
    }

    #[test]
    fn session_alarms_on_attack_and_latches() {
        let cfg = small_modeling();
        let sd = enrolled(&cfg);
        let poc = poc::representative(AttackFamily::FlushReload, &PocParams::default());
        let mut session = StreamSession::begin(
            Arc::clone(&sd),
            &poc.program,
            &poc.victim,
            &cfg,
            &StreamConfig::default(),
        )
        .unwrap();
        let mut fired_at = None;
        while !session.is_done() {
            let up = session.push(None, None).unwrap();
            if let Some(alarm) = &up.fired {
                assert_eq!(fired_at, None, "the alarm fires exactly once");
                fired_at = Some(alarm.at_step);
                assert_eq!(alarm.family, AttackFamily::FlushReload);
            }
            if let Some(at) = fired_at {
                let latched = session.alarm().expect("latched");
                assert_eq!(latched.at_step, at, "alarm is never retracted or replaced");
            }
        }
        let alarm = session.alarm().expect("an enrolled FR PoC must alarm");
        assert!(
            alarm.at_step < session.steps(),
            "early alarm: fired at {} of {} instructions",
            alarm.at_step,
            session.steps()
        );
    }

    #[test]
    fn session_stays_quiet_on_benign() {
        let cfg = small_modeling();
        let sd = enrolled(&cfg);
        let benign = sca_attacks::benign::generate_mix(1, 7)
            .pop()
            .expect("one benign program");
        let mut session = StreamSession::begin(
            Arc::clone(&sd),
            &benign.program,
            &benign.victim,
            &cfg,
            &StreamConfig::default(),
        )
        .unwrap();
        while !session.is_done() {
            session.push(None, None).unwrap();
        }
        assert_eq!(session.alarm(), None, "benign stream must not alarm");
    }

    #[test]
    fn session_scan_matches_unseeded_at_every_increment() {
        let cfg = small_modeling();
        let sd = enrolled(&cfg);
        let poc = poc::representative(AttackFamily::PrimeProbe, &PocParams::default());
        let mut session = StreamSession::begin(
            Arc::clone(&sd),
            &poc.program,
            &poc.victim,
            &cfg,
            &StreamConfig::default(),
        )
        .unwrap();
        while !session.is_done() {
            let up = session.push(None, None).unwrap();
            let target = session.modeler().model_cst();
            let want = sd.scan(&target, &ScanRequest::default()).unwrap();
            assert_eq!(
                up.best.map(|(i, s)| (i, s.to_bits())),
                want.best_entry().map(|e| (e.index, e.score.to_bits())),
                "seeded streaming scan must match the unseeded scan bitwise"
            );
        }
    }
}

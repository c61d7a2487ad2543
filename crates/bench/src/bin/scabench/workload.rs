//! The five workloads: their inputs, set-up, warm-up, timed phase and
//! correctness gate.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use sca_isa::rng::SmallRng;

use crate::gen::{self, Prog};
use crate::load::{self, Answers, Limit, Phase, Reloads};
use crate::proc::{self, Server};

/// The workloads, in report order. The names are fixed: later changes
/// cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop of single `classify` frames on warm models against the
    /// 4-entry PoC repository: fixed per-request costs dominate.
    Interactive,
    /// Closed loop of 128-program batches of never-seen programs: CPU
    /// execution and modeling dominate.
    BulkFresh,
    /// Closed loop of 8-program batches of warm out-of-repository
    /// programs against 1028 entries, with periodic hot reloads: the scan
    /// and the repository/index layer dominate.
    LargeRepo,
    /// Online detection: `watch` streams run to `done`.
    Watch,
    /// Sequential one-shot `scaguard classify` processes against 1028
    /// entries: process start and repository load dominate.
    Oneshot,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Interactive,
        Workload::BulkFresh,
        Workload::LargeRepo,
        Workload::Watch,
        Workload::Oneshot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::BulkFresh => "bulk-fresh",
            Workload::LargeRepo => "large-repo",
            Workload::Watch => "watch",
            Workload::Oneshot => "oneshot",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Prefix of the workload's program names.
    fn short(self) -> &'static str {
        match self {
            Workload::Interactive => "ia",
            Workload::BulkFresh => "bf",
            Workload::LargeRepo => "lr",
            Workload::Watch => "wa",
            Workload::Oneshot => "os",
        }
    }

    fn large(self) -> bool {
        matches!(self, Workload::LargeRepo | Workload::Oneshot)
    }
}

/// The reported tail percentile, on every workload: the highest with at
/// least ten samples beyond it in a 10-second seed run
/// (`stats::tail_percentile` of 120–300 ops) for `bulk-fresh`,
/// `large-repo` and `oneshot`, fixed so a change that alters the op count
/// still compares like with like. `interactive` (17000 requests) and
/// `watch` (1800 pushes) would allow p99, but there it measures the shared
/// machine's 10–50 ms stalls, not the server: a run with one or two stalls
/// reads p99 at twice the value of one without, so the watch p99 spread up
/// to 95% of its median across ten seeds, while p90 spread 2–5% in quiet
/// sets (see README.md, Baseline).
pub const TAIL: f64 = 90.0;

/// Length of the timed phase of a full run, in seconds. It is fixed, not
/// an option, so a parent and a change are always measured alike; every
/// phase stays under 30 s.
pub const PHASE_SECONDS: f64 = 10.0;

/// How big one run is.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Length of the timed phase (also sizes the fixed-count phases).
    pub seconds: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Programs in the correctness gate's sample.
    pub gate: usize,
    /// `build-repo --variants` for the 1028-entry repository.
    variants: usize,
    /// Attack variants and benign programs `large-repo` cycles over.
    large_half: usize,
    /// A `--smoke` run: tiny counts, so tails rest on few samples.
    pub smoke: bool,
}

impl Scale {
    pub fn new(smoke: bool, w: Workload) -> Scale {
        if smoke {
            return Scale {
                seconds: 0.5,
                setups: 1,
                gate: 4,
                variants: 8,
                large_half: 16,
                smoke,
            };
        }
        Scale {
            seconds: PHASE_SECONDS,
            // A large set-up takes about a second, a small one about 10 ms
            // of process starts. On a shared box a CPU runs up to half as
            // fast again for a second at a time, so the small set-ups are
            // spread over about 3 s (see `SETUP_PAUSE`) for their median
            // to see the machine's typical speed, not one moment's.
            setups: if w.large() { 5 } else { 25 },
            gate: 16,
            variants: 256,
            large_half: 128,
            smoke,
        }
    }
}

/// `scaguard serve --queue-depth` for every server the benchmark starts.
const QUEUE_DEPTH: &str = "32768";

/// Pause between two set-ups of a run.
pub const SETUP_PAUSE: Duration = Duration::from_millis(100);

/// `interactive` offers these rates (req/s), a third of the phase each.
const LADDER: [f64; 3] = [400.0, 1600.0, 3200.0];
/// `bulk-fresh` frames per second of phase, so that the phase lasts about
/// `PHASE_SECONDS` at the seed run (1800–2500 programs/s in 128-program
/// frames).
const BULK_FRAMES_PER_SEC: f64 = 16.0;
const BULK_FRAME: usize = 128;
/// `large-repo` programs per frame: small enough that a 10-second phase
/// holds over 100 frames even when the shared box runs slow (a program
/// scans for about 10–15 ms), so its p90 keeps ten samples beyond it.
const LARGE_FRAME: usize = 8;
/// `watch` streams per second of phase, sized like `BULK_FRAMES_PER_SEC`
/// (a stream takes 20–45 pushes of about 5.7 ms).
const WATCH_STREAMS_PER_SEC: f64 = 6.0;
/// `oneshot` processes per second of phase, sized like
/// `BULK_FRAMES_PER_SEC` (a process takes 70–140 ms). A fixed count keeps
/// ten processes beyond the p90 however slow the machine runs.
const ONESHOT_PER_SEC: f64 = 12.0;

/// One set-up: the repository built by `scaguard build-repo`, and the
/// server started on it (all but `oneshot`).
pub struct Env {
    pub repo: PathBuf,
    /// A byte-identical copy of the repository and its index, which
    /// `large-repo` reloads alternate with.
    copy: PathBuf,
    pub server: Option<Server>,
}

impl Env {
    pub fn stop(self) -> io::Result<()> {
        self.server.map_or(Ok(()), Server::stop)
    }

    fn addr(&self) -> &str {
        self.server.as_ref().map_or("", |s| s.addr.as_str())
    }

    /// CPU seconds used so far by the server, or for `oneshot` by this
    /// process's finished children.
    pub fn cpu_secs(&self) -> io::Result<f64> {
        match &self.server {
            Some(s) => s.cpu_secs(),
            None => proc::cpu_secs("self", true),
        }
    }
}

/// Build the workload's repository in `dir` and start its server with
/// `serve_args` added.
pub fn setup(w: Workload, dir: &Path, scale: &Scale, serve_args: &[&str]) -> io::Result<Env> {
    let _sp = sca_telemetry::span("bench.setup");
    fs::create_dir_all(dir)?;
    let name = if w.large() { "large" } else { "pocs" };
    let repo = dir.join(format!("{name}.repo"));
    let copy = dir.join(format!("{name}-b.repo"));
    let variants = scale.variants.to_string();
    let mut args = vec!["build-repo", repo.to_str().expect("utf-8 path")];
    if w.large() {
        args.extend(["--variants", &variants]);
    }
    proc::scaguard(&args)?;
    if w == Workload::LargeRepo {
        fs::copy(&repo, &copy)?;
        fs::copy(
            scaguard::index_sidecar_path(&repo),
            scaguard::index_sidecar_path(&copy),
        )?;
    }
    let server = match w {
        Workload::Oneshot => None,
        // An admission queue deeper than a whole `interactive` phase
        // (about 17 000 requests), so a stall of the shared box, however
        // long, shows up as latency rather than as shed requests.
        _ => Some(Server::spawn(
            &repo,
            &[&["--queue-depth", QUEUE_DEPTH], serve_args].concat(),
        )?),
    };
    Ok(Env { repo, copy, server })
}

/// One run's inputs: the measured programs and a disjoint warm-up set.
pub struct Inputs {
    pub w: Workload,
    pub seed: u64,
    pub scale: Scale,
    pub progs: Vec<Prog>,
    warm: Vec<Prog>,
    /// `oneshot`: the programs as `.sasm` files, index-aligned.
    sasm: Vec<PathBuf>,
}

impl Inputs {
    /// Generate the inputs of `w` at `seed`.
    pub fn new(w: Workload, seed: u64, scale: Scale) -> Inputs {
        // (measured attacks, measured benign, warm-up programs)
        let (attacks, benign, warm) = match w {
            Workload::Interactive | Workload::Oneshot => (32, 32, 0),
            Workload::BulkFresh => {
                let n = bulk_frames(scale.seconds) * BULK_FRAME;
                (n / 2, n / 2, 2 * BULK_FRAME)
            }
            Workload::LargeRepo => (scale.large_half, scale.large_half, 0),
            Workload::Watch => {
                let n = ((WATCH_STREAMS_PER_SEC * scale.seconds).round() as usize).max(3);
                (n * 2 / 3, n - n * 2 / 3, 2)
            }
        };
        let share = gen::Share {
            index: w as u64,
            count: Workload::ALL.len() as u64,
        };
        // One draw for both sets keeps the warm-up disjoint from the
        // measured programs; the warm-up takes the end of the list.
        let (warm_attacks, warm_benign) = (warm / 2, warm - warm / 2);
        let mut progs = gen::programs(
            w.short(),
            gen::mix(seed, w as u64 + 1),
            share,
            attacks + warm_attacks,
            benign + warm_benign,
        );
        let warm = progs.split_off(attacks + benign);
        Inputs {
            w,
            seed,
            scale,
            progs,
            warm,
            sasm: Vec::new(),
        }
    }

    /// Write the `.sasm` files `oneshot` runs the CLI on into `dir`.
    pub fn write_files(&mut self, dir: &Path) -> io::Result<()> {
        if self.w == Workload::Oneshot {
            self.sasm = write_sasm(dir, &self.progs)?;
        }
        Ok(())
    }

    /// Fill the server's caches and the answer set; nothing is measured.
    pub fn warm_up(&self, env: &Env, answers: &mut Answers) -> io::Result<()> {
        let _sp = sca_telemetry::span("bench.warm_up");
        let (addr, progs) = (env.addr(), &self.progs);
        match self.w {
            Workload::Interactive => {
                load::closed_loop(addr, progs, progs.len(), 1, Limit::Frames(1), None, answers)?;
                let steps = [(LADDER[0], Duration::from_millis(250))];
                load::open_loop(addr, progs, &steps, !self.seed, answers)?;
            }
            Workload::BulkFresh => {
                let warm = &self.warm;
                load::closed_loop(addr, warm, BULK_FRAME, 2, Limit::Frames(2), None, answers)?;
            }
            Workload::LargeRepo => {
                let frames = Limit::Frames(progs.len().div_ceil(LARGE_FRAME));
                load::closed_loop(addr, progs, LARGE_FRAME, 2, frames, None, answers)?;
            }
            Workload::Watch => {
                load::watch_loop(addr, &self.warm, answers)?;
            }
            Workload::Oneshot => {
                load::oneshot_loop(progs, &self.sasm, &env.repo, 2, answers)?;
            }
        }
        Ok(())
    }

    /// The timed phase at `share` of its full length. Returns the phase
    /// and how many of the programs (from the front) it sent.
    pub fn phase(
        &self,
        env: &Env,
        share: f64,
        answers: &mut Answers,
    ) -> io::Result<(Phase, usize)> {
        let _sp = sca_telemetry::span("bench.phase");
        let length = Duration::from_secs_f64(self.scale.seconds * share);
        let (addr, progs) = (env.addr(), &self.progs);
        let mut used = progs.len();
        let phase = match self.w {
            Workload::Interactive => {
                let steps: Vec<_> = LADDER.iter().map(|&r| (r, length / 3)).collect();
                load::open_loop(addr, progs, &steps, self.seed, answers)?
            }
            Workload::BulkFresh => {
                let frames = bulk_frames(self.scale.seconds * share);
                used = frames * BULK_FRAME;
                load::closed_loop(
                    addr,
                    progs,
                    BULK_FRAME,
                    2,
                    Limit::Frames(frames),
                    None,
                    answers,
                )?
            }
            Workload::LargeRepo => {
                let reloads = Reloads {
                    every: length / 5,
                    paths: [&env.repo, &env.copy],
                };
                let limit = Limit::For(length);
                load::closed_loop(addr, progs, LARGE_FRAME, 2, limit, Some(reloads), answers)?
            }
            Workload::Watch => {
                used = ((progs.len() as f64 * share).round() as usize).max(1);
                load::watch_loop(addr, &progs[..used], answers)?
            }
            Workload::Oneshot => {
                let runs = (ONESHOT_PER_SEC * self.scale.seconds * share).round() as usize;
                load::oneshot_loop(progs, &self.sasm, &env.repo, runs.max(1), answers)?
            }
        };
        Ok((phase, used))
    }

    /// A seeded sample of the first `used` programs, for the gate and the
    /// layer probes.
    pub fn sample(&self, used: usize) -> Vec<Prog> {
        let mut rng = SmallRng::seed_from_u64(gen::mix(self.seed, 0x9a7e));
        let mut idx: Vec<usize> = (0..used.min(self.progs.len())).collect();
        let k = self.scale.gate.min(idx.len());
        // Partial Fisher–Yates: the first k slots end up a uniform sample.
        for i in 0..k {
            let j = rng.gen_range(i..idx.len());
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx.sort_unstable();
        idx.into_iter().map(|i| self.progs[i].clone()).collect()
    }
}

/// An even count, so both connections carry the same number of frames.
fn bulk_frames(seconds: f64) -> usize {
    ((BULK_FRAMES_PER_SEC * seconds / 2.0).round() as usize).max(1) * 2
}

/// Write each program to `<dir>/<name>.sasm`, returning the paths.
fn write_sasm(dir: &Path, progs: &[Prog]) -> io::Result<Vec<PathBuf>> {
    fs::create_dir_all(dir)?;
    progs
        .iter()
        .map(|p| {
            let path = dir.join(format!("{}.sasm", p.name));
            fs::write(&path, &p.source)?;
            Ok(path)
        })
        .collect()
}

/// The correctness gate, run outside the timed phase: every sampled
/// program's wire detection must be byte-identical to `scaguard classify
/// --json` on the same repository and to the first answer this run got;
/// for `watch`, each stream is also run again and must end with the same
/// detection and alarm step. Returns `(checks, mismatches)`.
pub fn gate(
    w: Workload,
    env: &Env,
    dir: &Path,
    sample: &[Prog],
    answers: &mut Answers,
) -> io::Result<(u64, u64)> {
    let _sp = sca_telemetry::span("bench.gate");
    let sasm = write_sasm(dir, sample)?;
    // `oneshot` has no server of its own; start one just for the check.
    let temporary = match &env.server {
        Some(_) => None,
        None => Some(Server::spawn(&env.repo, &[])?),
    };
    let server = env
        .server
        .as_ref()
        .or(temporary.as_ref())
        .expect("a server");
    let mut client = load::connect(&server.addr)?;
    let response = client.request(&load::batch_frame(sample))?;
    let wire = load::batch_detections(&response, sample.len())?;
    let mut mismatches = 0;
    for ((p, path), wire) in sample.iter().zip(&sasm).zip(wire) {
        let offline = load::cli_classify(p, path, &env.repo)?;
        let mut agree = wire.is_some_and(|d| d.to_string() == offline)
            && answers
                .detection(&p.name)
                .is_none_or(|first| first.to_string() == offline);
        if w == Workload::Watch {
            let again = load::watch_stream(&mut client, p)?;
            agree &= again.done.is_some_and(|d| d.to_string() == offline)
                && answers.check_alarm(&p.name, again.alarm_step);
        }
        if !agree {
            eprintln!(
                "scabench: {}: {} disagrees with offline classify",
                w.name(),
                p.name
            );
            mismatches += 1;
        }
    }
    drop(client);
    if let Some(s) = temporary {
        s.stop()?;
    }
    Ok((sample.len() as u64, mismatches))
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

    use sca_attacks::dataset::mutated_family;
    use sca_attacks::mutate::MutationConfig;
    use sca_attacks::poc::{self, PocParams};
    use sca_attacks::AttackFamily;

    use super::*;

    /// A full-size run with a 2-second phase, so the fixed-count sets stay
    /// small.
    fn short(w: Workload) -> Scale {
        Scale {
            seconds: 2.0,
            ..Scale::new(false, w)
        }
    }

    /// Every program each workload generates at `seed`: source text to
    /// attack flag.
    fn sources(seed: u64) -> Vec<(Workload, HashMap<String, bool>)> {
        Workload::ALL
            .into_iter()
            .map(|w| {
                let inputs = Inputs::new(w, seed, short(w));
                let all = inputs.progs.iter().chain(&inputs.warm);
                (w, all.map(|p| (p.source.clone(), p.attack)).collect())
            })
            .collect()
    }

    #[test]
    fn inputs_are_deterministic_per_seed() {
        let render = |seed| {
            let i = Inputs::new(Workload::Watch, seed, short(Workload::Watch));
            i.progs
                .iter()
                .chain(&i.warm)
                .map(|p| format!("{}|{}|{}", p.name, p.victim, p.source))
                .collect::<Vec<_>>()
        };
        assert_eq!(render(1), render(1));
        assert_ne!(render(1), render(2));
    }

    #[test]
    fn program_sets_are_disjoint() {
        let enrolled: HashSet<String> = AttackFamily::ALL
            .iter()
            .flat_map(|&f| {
                // What `scaguard build-repo --variants 256` enrolls.
                let mut v = mutated_family(f, 256, 0x5ca6_0a2d, &MutationConfig::default());
                v.push(poc::representative(f, &PocParams::default()));
                v
            })
            .map(|s| sca_isa::to_asm(&s.program))
            .collect();
        let one = sources(1);
        for (i, (wa, a)) in one.iter().enumerate() {
            assert!(
                a.keys().all(|t| !enrolled.contains(t)),
                "{} overlaps the repository",
                wa.name()
            );
            for (wb, b) in &one[i + 1..] {
                assert!(
                    a.keys().all(|t| !b.contains_key(t)),
                    "{} overlaps {}",
                    wa.name(),
                    wb.name()
                );
            }
        }
        // Across seeds the attack variants never repeat. The benign
        // generators do at their own small rate, which only the
        // thousands of benign programs of `bulk-fresh` run into.
        for ((w, a), (_, b)) in one.iter().zip(sources(2)) {
            let repeats: Vec<bool> = a
                .iter()
                .filter(|(t, _)| b.contains_key(*t))
                .map(|(_, &x)| x)
                .collect();
            assert!(
                !repeats.contains(&true),
                "{} repeats an attack variant",
                w.name()
            );
            if *w != Workload::BulkFresh {
                assert!(repeats.is_empty(), "{} repeats across seeds", w.name());
            }
        }
    }
}

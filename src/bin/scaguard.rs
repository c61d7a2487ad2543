//! The SCAGuard command-line tool: model programs, build and persist PoC
//! repositories, classify target programs — the paper's "security check
//! before installing an untrusted program" deployment (Section V) — and
//! run or talk to the resident detection service.
//!
//! ```sh
//! # build a repository from the built-in attack PoCs:
//! scaguard build-repo /tmp/pocs.repo
//!
//! # classify an assembly program against it:
//! scaguard classify target.sasm --repo /tmp/pocs.repo --victim shared:3
//!
//! # or keep the pipeline resident and classify over the wire:
//! scaguard serve /tmp/pocs.repo --addr 127.0.0.1:4815 &
//! scaguard submit target.sasm --addr 127.0.0.1:4815 --victim shared:3
//! ```

use std::collections::BTreeMap;
use std::error::Error;
use std::fs;
use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sca_attacks::dataset::mutated_family;
use sca_attacks::mutate::MutationConfig;
use sca_attacks::poc::{self, PocParams};
use sca_attacks::{AttackFamily, Sample};
use sca_cpu::Victim;
use sca_serve::protocol::{self, Request};
use sca_serve::{Client, ClientConfig, ServeConfig, WatchOptions};
use sca_telemetry::{Json, Record};
use scaguard::{
    build_model, detection_json, explain_similarity, index_sidecar_path, load_index,
    load_repository, save_index, save_repository, Detector, IndexConfig, LoadRepoError,
    ModelBuilder, ModelRepository, ModelingConfig, RepoIndex, ScanRequest,
};

/// Master seed for `build-repo --variants` (the dataset module's paper
/// seed), so bulk-enrolled repositories are reproducible bit-for-bit.
const VARIANT_SEED: u64 = 0x5ca6_0a2d;

fn usage() -> &'static str {
    "usage:
  scaguard build-repo <out-file> [--variants <n>] [--no-index] [--jobs <n>]
          [--model-cache <path>] [--telemetry <out.jsonl>]
      model the built-in PoCs (one per attack type) and save the repository;
      --variants additionally enrolls n deterministic mutated variants per
      attack family (bulk enrollment: 4 families x n entries from one
      command); a metric-index sidecar (<out-file>.idx) is written
      alongside the repository unless --no-index;
      --jobs models them with n worker threads
  scaguard classify <program.sasm> --repo <repo-file>
          [--threshold <0..1>] [--victim none|shared:<secret>|conflict:<secret>]
          [--jobs <n>] [--model-cache <path>] [--no-index] [--json]
          [--timings] [--telemetry <out.jsonl>]
      classify an assembled program against a saved repository;
      the scan uses the repository's index sidecar (<repo-file>.idx) to
      skip entries that provably cannot win — a missing, corrupt, or
      stale sidecar is rebuilt in memory (warning on stderr); --no-index
      forces the plain linear scan; the detection is byte-identical
      either way;
      --jobs scans the repository with n worker threads;
      prints the best-matching PoC with its exact score, then the
      verdict; --json emits the detection (verdict, family, best PoC,
      best score, threshold) as a single JSON object on stdout; --timings
      prints an open/model/scan/render stage breakdown on stderr (open:
      loading the repository and its index; stdout is unchanged)
  scaguard model <program.sasm> [--victim ...] [--telemetry <out.jsonl>]
      print the program's CST-BBS attack behavior model
  scaguard explain <program.sasm> --repo <repo-file> [--victim ...]
          [--no-index]
      show the DTW alignment against the best-matching PoC model (the
      entry `classify` names)
  scaguard serve <repo-file> [--addr <host:port>] [--workers <n>]
          [--queue-depth <n>] [--deadline-ms <n>]
          [--threshold <0..1>] [--io-timeout-ms <n>] [--metrics]
          [--max-connections <n>] [--flight-capacity <n>] [--slow-ms <n>]
          [--slow-log <out.jsonl>]
      run the resident detection service on the repository: newline-
      delimited JSON over TCP (classify, classify-batch, model,
      reload-repo, stats, metrics, flight, shutdown), bounded admission
      queue, fixed worker pool; prints `listening on <addr>` once ready
      and runs until a client sends `shutdown`; --addr defaults to
      127.0.0.1:0 (ephemeral port); --io-timeout-ms disconnects a
      client that stalls mid-frame or never drains responses (default
      30000; 0 disables) — idle connections that completed a frame park free of
      charge and are never timed out; --max-connections caps concurrent
      connections (beyond it a peer gets one `overloaded` frame and a
      clean close; 0 or unset = unlimited); --metrics enables the
      telemetry registry so `metrics`
      reports counters/histograms and spans carry trace ids; requests
      slower than --slow-ms dump their summary and span tree to
      --slow-log (JSONL; 0 dumps everything); --flight-capacity sizes
      the always-on ring of per-request summaries (default 256)
  scaguard submit <program.sasm>... --addr <host:port> [--victim ...]
          [--batch <n>] [--threshold <0..1>] [--deadline-ms <n>]
          [--retries <n>] [--json] [--timings]
      classify one or more programs against a running `scaguard serve`;
      --json output is byte-identical to offline `classify --json`, one
      detection object per program in submission order; several
      programs ride `classify-batch` frames of --batch programs each
      (default: all in one frame), pipelined on a single connection;
      --retries re-sends with jittered backoff when the server sheds
      the request as `overloaded` (never after it was admitted);
      --timings prints each request's trace id and per-stage timing
      breakdown on stderr (stdout is unchanged)
  scaguard watch <program.sasm> --addr <host:port> [--victim ...]
          [--increment <n>] [--stream-threshold <0..1>] [--sustain <n>]
          [--deadline-ms <n>] [--json]
      stream the program to a running `scaguard serve` for online
      detection: the server commits --increment instructions at a time
      (default 64) and re-scores the prefix after each one; an ALARM
      line is printed the moment the prefix's best score holds at or
      above --stream-threshold for --sustain consecutive increments
      (defaults: the server's streaming defaults), long before the
      trace ends; the final verdict over the whole trace follows;
      --json instead emits every progress/alarm/done event as one JSON
      object per line on stdout
  scaguard stats <telemetry.jsonl>
  scaguard stats --addr <host:port> [--watch] [--interval-ms <n>]
      summarize a telemetry trace written by --telemetry (per-stage span
      timings, counters, histogram percentiles), or — with --addr —
      fetch a running server's `metrics` snapshot; --watch refreshes
      the live view every --interval-ms (default 1000, minimum 100)
      until killed
  scaguard asm <program.sasm>
      assemble and disassemble a program (syntax check)
  scaguard --help | -h | help
      print this usage
  scaguard --version | -V
      print the version

  --model-cache <path> persists built models content-addressed by
  (program, victim, config), so repeated invocations skip modeling; a
  malformed cache file is ignored with a warning and rewritten on exit;
  --telemetry <out.jsonl> records pipeline spans/counters during the
  command and writes them as JSON Lines (inspect with `scaguard stats`)"
}

struct Options {
    repo: Option<String>,
    threshold: f64,
    threshold_set: bool,
    victim: Victim,
    victim_spec: String,
    telemetry: Option<String>,
    json: bool,
    jobs: usize,
    model_cache: Option<String>,
    addr: Option<String>,
    workers: usize,
    queue_depth: usize,
    deadline_ms: Option<u64>,
    io_timeout_ms: Option<u64>,
    max_connections: Option<usize>,
    retries: u32,
    timings: bool,
    watch: bool,
    interval_ms: u64,
    batch: Option<usize>,
    metrics: bool,
    slow_ms: Option<u64>,
    slow_log: Option<String>,
    flight_capacity: usize,
    variants: usize,
    no_index: bool,
    increment: Option<u64>,
    stream_threshold: Option<f64>,
    sustain: Option<u64>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        repo: None,
        threshold: Detector::DEFAULT_THRESHOLD,
        threshold_set: false,
        victim: Victim::None,
        victim_spec: "none".into(),
        telemetry: None,
        json: false,
        jobs: 1,
        model_cache: None,
        addr: None,
        workers: 4,
        queue_depth: 64,
        deadline_ms: None,
        io_timeout_ms: Some(30_000),
        max_connections: None,
        retries: 0,
        timings: false,
        watch: false,
        interval_ms: 1_000,
        batch: None,
        metrics: false,
        slow_ms: None,
        slow_log: None,
        flight_capacity: 256,
        variants: 0,
        no_index: false,
        increment: None,
        stream_threshold: None,
        sustain: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--repo" => opts.repo = Some(it.next().ok_or("--repo needs a path")?.clone()),
            "--threshold" => {
                opts.threshold = it
                    .next()
                    .ok_or("--threshold needs a value")?
                    .parse()
                    .map_err(|e| format!("bad threshold: {e}"))?;
                opts.threshold_set = true;
            }
            "--victim" => {
                let spec = it.next().ok_or("--victim needs a spec")?;
                opts.victim = protocol::parse_victim(spec)?;
                opts.victim_spec = spec.clone();
            }
            "--telemetry" => {
                opts.telemetry = Some(it.next().ok_or("--telemetry needs a path")?.clone());
            }
            "--json" => opts.json = true,
            "--model-cache" => {
                opts.model_cache = Some(it.next().ok_or("--model-cache needs a path")?.clone());
            }
            "--jobs" => {
                opts.jobs = it
                    .next()
                    .ok_or("--jobs needs a count")?
                    .parse()
                    .map_err(|e| format!("bad job count: {e}"))?;
                if opts.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--addr" => opts.addr = Some(it.next().ok_or("--addr needs host:port")?.clone()),
            "--workers" => {
                opts.workers = it
                    .next()
                    .ok_or("--workers needs a count")?
                    .parse()
                    .map_err(|e| format!("bad worker count: {e}"))?;
                if opts.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--queue-depth" => {
                opts.queue_depth = it
                    .next()
                    .ok_or("--queue-depth needs a count")?
                    .parse()
                    .map_err(|e| format!("bad queue depth: {e}"))?;
                if opts.queue_depth == 0 {
                    return Err("--queue-depth must be at least 1".into());
                }
            }
            "--deadline-ms" => {
                opts.deadline_ms = Some(
                    it.next()
                        .ok_or("--deadline-ms needs a value")?
                        .parse()
                        .map_err(|e| format!("bad deadline: {e}"))?,
                );
            }
            "--io-timeout-ms" => {
                let ms: u64 = it
                    .next()
                    .ok_or("--io-timeout-ms needs a value (0 disables the timeout)")?
                    .parse()
                    .map_err(|e| format!("bad io timeout: {e}"))?;
                opts.io_timeout_ms = (ms > 0).then_some(ms);
            }
            "--max-connections" => {
                let n: usize = it
                    .next()
                    .ok_or("--max-connections needs a count (0 removes the cap)")?
                    .parse()
                    .map_err(|e| format!("bad connection cap: {e}"))?;
                opts.max_connections = (n > 0).then_some(n);
            }
            "--retries" => {
                opts.retries = it
                    .next()
                    .ok_or("--retries needs a count")?
                    .parse()
                    .map_err(|e| format!("bad retry count: {e}"))?;
            }
            "--timings" => opts.timings = true,
            "--watch" => opts.watch = true,
            "--interval-ms" => {
                opts.interval_ms = it
                    .next()
                    .ok_or("--interval-ms needs a value")?
                    .parse()
                    .map_err(|e| format!("bad interval: {e}"))?;
                if opts.interval_ms < 100 {
                    return Err("--interval-ms must be at least 100".into());
                }
            }
            "--batch" => {
                let n: usize = it
                    .next()
                    .ok_or("--batch needs a size")?
                    .parse()
                    .map_err(|e| format!("bad batch size: {e}"))?;
                if n == 0 {
                    return Err("--batch must be at least 1".into());
                }
                opts.batch = Some(n);
            }
            "--metrics" => opts.metrics = true,
            "--slow-ms" => {
                opts.slow_ms = Some(
                    it.next()
                        .ok_or("--slow-ms needs a value (0 dumps every request)")?
                        .parse()
                        .map_err(|e| format!("bad slow threshold: {e}"))?,
                );
            }
            "--slow-log" => {
                opts.slow_log = Some(it.next().ok_or("--slow-log needs a path")?.clone());
            }
            "--variants" => {
                opts.variants = it
                    .next()
                    .ok_or("--variants needs a count")?
                    .parse()
                    .map_err(|e| format!("bad variant count: {e}"))?;
            }
            "--no-index" => opts.no_index = true,
            "--increment" => {
                let n: u64 = it
                    .next()
                    .ok_or("--increment needs a count")?
                    .parse()
                    .map_err(|e| format!("bad increment: {e}"))?;
                if n == 0 {
                    return Err("--increment must be at least 1".into());
                }
                opts.increment = Some(n);
            }
            "--stream-threshold" => {
                opts.stream_threshold = Some(
                    it.next()
                        .ok_or("--stream-threshold needs a value")?
                        .parse()
                        .map_err(|e| format!("bad stream threshold: {e}"))?,
                );
            }
            "--sustain" => {
                let n: u64 = it
                    .next()
                    .ok_or("--sustain needs a count")?
                    .parse()
                    .map_err(|e| format!("bad sustain count: {e}"))?;
                if n == 0 {
                    return Err("--sustain must be at least 1".into());
                }
                opts.sustain = Some(n);
            }
            "--flight-capacity" => {
                opts.flight_capacity = it
                    .next()
                    .ok_or("--flight-capacity needs a count")?
                    .parse()
                    .map_err(|e| format!("bad flight capacity: {e}"))?;
                if opts.flight_capacity == 0 {
                    return Err("--flight-capacity must be at least 1".into());
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

/// Write the collected telemetry as JSONL, if `--telemetry` was given.
fn finish_telemetry(opts: &Options) -> Result<(), Box<dyn Error>> {
    let Some(path) = &opts.telemetry else {
        return Ok(());
    };
    let snap = sca_telemetry::snapshot();
    let mut buf = Vec::new();
    sca_telemetry::write_jsonl(&snap, &mut buf)?;
    fs::write(path, buf)?;
    eprintln!(
        "telemetry: {} spans, {} counters, {} histograms -> {path}",
        snap.spans.len(),
        snap.counters.len(),
        snap.histograms.len()
    );
    Ok(())
}

fn load_program(path: &str) -> Result<sca_isa::Program, Box<dyn Error>> {
    let source = fs::read_to_string(path)?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("program");
    Ok(sca_isa::assemble(name, &source)?)
}

/// The command's [`ModelBuilder`]: `--jobs` workers, `--model-cache`
/// persistence when given. A malformed cache file (a torn save, a
/// foreign file) starts the cache empty with a warning; the exit save
/// replaces it.
fn make_builder(opts: &Options) -> Result<ModelBuilder, Box<dyn Error>> {
    let mut builder = ModelBuilder::new(&ModelingConfig::default()).with_jobs(opts.jobs);
    if let Some(path) = &opts.model_cache {
        builder = builder.with_disk_cache(path);
        match builder.load_disk_cache() {
            Ok(()) if !builder.is_empty() => {
                eprintln!("model cache: {} entries from {path}", builder.len());
            }
            Ok(()) => {}
            Err(e @ LoadRepoError::Parse { .. }) => {
                eprintln!("model cache: {e}; starting empty");
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(builder)
}

fn cmd_build_repo(out: &str, opts: &Options, builder: &ModelBuilder) -> Result<(), Box<dyn Error>> {
    let params = PocParams::default();
    let mut pending: Vec<(AttackFamily, String, Sample)> = AttackFamily::ALL
        .iter()
        .map(|&f| {
            let sample = poc::representative(f, &params);
            let name = sample.name().to_string();
            (f, name, sample)
        })
        .collect();
    // Bulk enrollment: n deterministic mutated variants per family, named
    // `<abbrev>-var-<i>` so repository contents are stable across runs.
    for family in AttackFamily::ALL {
        for (i, sample) in mutated_family(
            family,
            opts.variants,
            VARIANT_SEED,
            &MutationConfig::default(),
        )
        .into_iter()
        .enumerate()
        {
            pending.push((family, format!("{}-var-{i:04}", family.abbrev()), sample));
        }
    }
    let targets: Vec<_> = pending
        .iter()
        .map(|(_, _, s)| (&s.program, &s.victim))
        .collect();
    let models = builder.build_batch_cst(&targets);
    let mut repo = ModelRepository::new();
    for ((family, name, _), model) in pending.iter().zip(models) {
        repo.add_model(*family, name.as_str(), (*model?).clone());
        if !name.contains("-var-") {
            eprintln!("modeled {family} <- {name}");
        }
    }
    if opts.variants > 0 {
        eprintln!(
            "enrolled {} mutated variants ({} families x {})",
            opts.variants * AttackFamily::ALL.len(),
            AttackFamily::ALL.len(),
            opts.variants
        );
    }
    save_repository(&repo, out)?;
    if opts.no_index {
        eprintln!("wrote {} models to {out} (no index)", repo.len());
    } else {
        let index = RepoIndex::build(&repo, &IndexConfig::default());
        let sidecar = index_sidecar_path(out);
        save_index(&index, &sidecar)?;
        eprintln!(
            "wrote {} models to {out} (index: {})",
            repo.len(),
            sidecar.display()
        );
    }
    Ok(())
}

/// Attach the repository's sidecar index to a detector, rebuilding in
/// memory when the sidecar is missing, corrupt, or stale. The index only
/// prunes — the detection is byte-identical with or without it — so a
/// bad sidecar is never fatal.
fn attach_index(detector: &mut Detector, repo_path: &str) {
    let sidecar = index_sidecar_path(repo_path);
    match load_index(&sidecar) {
        Ok(index) => {
            if detector.set_index(index).is_ok() {
                return;
            }
            eprintln!(
                "index: {} is stale for {repo_path}; rebuilding in memory",
                sidecar.display()
            );
        }
        Err(e) => eprintln!("index: {e}; rebuilding in memory"),
    }
    let index = detector.build_index();
    detector
        .set_index(index)
        .expect("a freshly built index matches its repository");
}

/// Open `--repo` for a command that scans it (`classify`, `explain`):
/// load the repository, prepare the detector, and attach the index
/// sidecar unless `--no-index`.
fn open_detector(cmd: &str, opts: &Options) -> Result<Detector, Box<dyn Error>> {
    let repo_path = opts
        .repo
        .as_deref()
        .ok_or_else(|| format!("{cmd} needs --repo (create one with `scaguard build-repo`)"))?;
    let mut detector = Detector::new(load_repository(repo_path)?, opts.threshold)?;
    if !opts.no_index {
        attach_index(&mut detector, repo_path);
    }
    Ok(detector)
}

fn cmd_classify(path: &str, opts: &Options, builder: &ModelBuilder) -> Result<(), Box<dyn Error>> {
    let mut stages: Vec<(&str, Duration)> = Vec::new();
    let t = Instant::now();
    let detector = open_detector("classify", opts)?;
    stages.push(("open", t.elapsed()));
    let program = load_program(path)?;
    let detection = {
        let mut sp = sca_telemetry::span("detect");
        sp.attr("program", program.name());
        sp.attr("threshold", detector.threshold());
        let t = Instant::now();
        let model = builder.build_cst(&program, &opts.victim)?;
        stages.push(("model", t.elapsed()));
        let t = Instant::now();
        let detection = detector.scan(&model, &jobs_request(opts))?;
        stages.push(("scan", t.elapsed()));
        detection.annotate(&mut sp);
        detection
    };
    let render_start = Instant::now();
    let json = detection_json(program.name(), &detection);
    if opts.json {
        println!("{json}");
    } else {
        print_detection(&json)?;
    }
    if opts.timings {
        stages.push(("render", render_start.elapsed()));
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let parts: Vec<String> = stages
            .iter()
            .map(|(name, d)| format!("{name}={:.3}ms", ms(*d)))
            .collect();
        let total: Duration = stages.iter().map(|(_, d)| *d).sum();
        eprintln!("timings: {} total={:.3}ms", parts.join(" "), ms(total));
    }
    Ok(())
}

/// The scan `classify` and `explain` run: `--jobs` workers, no seed, no
/// deadline.
fn jobs_request(opts: &Options) -> ScanRequest {
    ScanRequest {
        jobs: opts.jobs,
        ..ScanRequest::default()
    }
}

/// Run the resident detection service until a client sends `shutdown`.
fn cmd_serve(repo: &str, opts: &Options) -> Result<(), Box<dyn Error>> {
    let mut config = ServeConfig::new(repo);
    if let Some(addr) = &opts.addr {
        config.addr = addr.clone();
    }
    config.workers = opts.workers;
    config.queue_depth = opts.queue_depth;
    config.deadline_ms = opts.deadline_ms;
    config.threshold = opts.threshold;
    config.io_timeout_ms = opts.io_timeout_ms;
    config.max_connections = opts.max_connections;
    config.metrics = opts.metrics;
    config.flight_capacity = opts.flight_capacity;
    config.slow_ms = opts.slow_ms;
    config.slow_log = opts.slow_log.as_ref().map(std::path::PathBuf::from);
    let handle = sca_serve::spawn(config)?;
    println!("listening on {}", handle.addr());
    std::io::stdout().flush()?;
    handle.join();
    eprintln!("server stopped");
    Ok(())
}

/// Read a program source and its display name (the file stem).
fn read_program_source(path: &str) -> Result<(String, String), Box<dyn Error>> {
    let source = fs::read_to_string(path)?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("program")
        .to_string();
    Ok((name, source))
}

/// Classify one or more programs against a running `scaguard serve`
/// instance. A single program without `--batch` keeps the classic
/// one-frame request; anything else rides `classify-batch` frames,
/// pipelined on one connection.
fn cmd_submit(paths: &[String], opts: &Options) -> Result<(), Box<dyn Error>> {
    let addr = opts
        .addr
        .as_deref()
        .ok_or("submit needs --addr <host:port> of a running `scaguard serve`")?;
    if paths.is_empty() {
        return Err("submit needs at least one <program.sasm> path".into());
    }
    if paths.len() > 1 || opts.batch.is_some() {
        return cmd_submit_batch(paths, addr, opts);
    }
    let (name, source) = read_program_source(&paths[0])?;
    let mut client =
        Client::connect_with(addr, ClientConfig::default().with_retries(opts.retries))?;
    let request = Request::Classify {
        name,
        program: source,
        victim: opts.victim_spec.clone(),
        threshold: opts.threshold_set.then_some(opts.threshold),
        deadline_ms: opts.deadline_ms,
        debug_sleep_ms: 0,
        debug_panic: false,
    };
    // The timings flag rides the envelope, not the request, so the
    // detection on the wire stays byte-identical either way.
    let frame = if opts.timings {
        protocol::with_timings_flag(&request)
    } else {
        request.to_json()
    };
    let response = client.request_retry(&frame)?;
    if let Some(kind) = protocol::error_kind(&response) {
        let message = response
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("(no message)");
        let trace = protocol::trace_id(&response)
            .map(|t| format!(" [trace {t}]"))
            .unwrap_or_default();
        return Err(format!("server refused the request ({kind}){trace}: {message}").into());
    }
    // Observability goes to stderr: stdout stays byte-identical to
    // offline `classify --json`.
    if opts.timings {
        if let Some(trace) = protocol::trace_id(&response) {
            eprintln!("trace_id: {trace}");
        }
        if let Some(timings) = protocol::timings(&response) {
            print_wire_timings(timings);
        }
    }
    let detection = response
        .get("detection")
        .ok_or("malformed response: no detection")?;
    if opts.json {
        println!("{detection}");
        return Ok(());
    }
    print_detection(detection)
}

/// The batched submit path: chunk the programs into `classify-batch`
/// frames of `--batch` programs each (default: one frame with all of
/// them), keep every frame in flight at once on one pipelined
/// connection, and print the per-program results in submission order.
/// A per-program failure is reported on stderr and turns the exit
/// status, but never hides its siblings' detections.
fn cmd_submit_batch(paths: &[String], addr: &str, opts: &Options) -> Result<(), Box<dyn Error>> {
    let programs = paths
        .iter()
        .map(|path| {
            let (name, source) = read_program_source(path)?;
            Ok(sca_serve::BatchProgram {
                name,
                program: source,
                victim: opts.victim_spec.clone(),
                threshold: opts.threshold_set.then_some(opts.threshold),
            })
        })
        .collect::<Result<Vec<_>, Box<dyn Error>>>()?;
    let chunk = opts.batch.unwrap_or(programs.len()).max(1);
    let frames: Vec<Json> = programs
        .chunks(chunk)
        .map(|c| {
            let request = Request::ClassifyBatch {
                programs: c.to_vec(),
                deadline_ms: opts.deadline_ms,
                debug_sleep_ms: 0,
            };
            if opts.timings {
                protocol::with_timings_flag(&request)
            } else {
                request.to_json()
            }
        })
        .collect();
    let mut client =
        Client::connect_with(addr, ClientConfig::default().with_retries(opts.retries))?;
    let responses = client.pipeline(&frames)?;

    let mut failures = 0usize;
    let mut slots = programs.iter();
    for response in &responses {
        if let Some(kind) = protocol::error_kind(response) {
            let message = response
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap_or("(no message)");
            return Err(format!("server refused a batch frame ({kind}): {message}").into());
        }
        if opts.timings {
            if let Some(trace) = protocol::trace_id(response) {
                eprintln!("trace_id: {trace}");
            }
            if let Some(timings) = protocol::timings(response) {
                print_wire_timings(timings);
            }
        }
        let Some(Json::Arr(results)) = response.get("results") else {
            return Err("malformed response: no results array".into());
        };
        for result in results {
            let program = slots.next().ok_or("server returned too many results")?;
            if let Some(err) = result.get("error") {
                failures += 1;
                let kind = err.get("kind").and_then(Json::as_str).unwrap_or("?");
                let message = err.get("message").and_then(Json::as_str).unwrap_or("?");
                eprintln!("error: {} ({kind}): {message}", program.name);
                continue;
            }
            let detection = result
                .get("detection")
                .ok_or("malformed result: neither detection nor error")?;
            if opts.json {
                println!("{detection}");
            } else {
                println!("{}:", program.name);
                print_detection(detection)?;
            }
        }
    }
    if slots.next().is_some() {
        return Err("server returned too few results".into());
    }
    if failures > 0 {
        return Err(format!("{failures} of {} programs failed", programs.len()).into());
    }
    Ok(())
}

/// Stream a program to a running `scaguard serve` for online detection:
/// open a watch stream, push one increment per frame, and surface the
/// server's `progress`/`alarm`/`done` events as they arrive. An alarm is
/// printed the moment it fires — typically long before the trace ends —
/// and the terminal verdict for the streamed prefix follows.
fn cmd_watch(path: &str, opts: &Options) -> Result<(), Box<dyn Error>> {
    let addr = opts
        .addr
        .as_deref()
        .ok_or("watch needs --addr <host:port> of a running `scaguard serve`")?;
    let (name, source) = read_program_source(path)?;
    let mut client = Client::connect(addr)?;
    let options = WatchOptions {
        increment: opts.increment,
        threshold: opts.stream_threshold,
        sustain: opts.sustain,
        deadline_ms: opts.deadline_ms,
    };
    let ack = client.watch_open(&name, &source, &opts.victim_spec, &options)?;
    if let Some(kind) = protocol::error_kind(&ack) {
        let message = ack
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("(no message)");
        return Err(format!("server refused the watch ({kind}): {message}").into());
    }
    let stream = ack
        .get("stream")
        .and_then(Json::as_u64)
        .ok_or("malformed ack: no stream id")?;
    let num = |k: &str| ack.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    eprintln!(
        "watching {name} as stream {stream} (increment {}, threshold {:.2}, sustain {})",
        num("increment"),
        num("threshold"),
        num("sustain")
    );
    if opts.json {
        println!("{ack}");
    }
    loop {
        let events = client.watch_push(stream, 1)?;
        for event in &events {
            if let Some(kind) = protocol::error_kind(event) {
                let message = event
                    .get("error")
                    .and_then(|e| e.get("message"))
                    .and_then(Json::as_str)
                    .unwrap_or("(no message)");
                return Err(format!("watch stream failed ({kind}): {message}").into());
            }
            if opts.json {
                println!("{event}");
            }
            match event.get("event").and_then(Json::as_str) {
                Some("alarm") => {
                    let alarm = event.get("alarm").ok_or("malformed alarm event")?;
                    let get = |k: &str| alarm.get(k).and_then(Json::as_str).unwrap_or("?");
                    let at_step = alarm.get("at_step").and_then(Json::as_u64).unwrap_or(0);
                    let score = alarm.get("score").and_then(Json::as_f64).unwrap_or(0.0);
                    let line = format!(
                        "ALARM {} at step {at_step} (matches {}, score {:.2}%)",
                        get("family"),
                        get("poc"),
                        score * 100.0
                    );
                    if opts.json {
                        eprintln!("{line}");
                    } else {
                        println!("{line}");
                    }
                }
                Some("progress") => {
                    let steps = event.get("steps").and_then(Json::as_u64).unwrap_or(0);
                    let score = event.get("score").and_then(Json::as_f64).unwrap_or(0.0);
                    eprintln!("  step {steps:>8}  best score {:.2}%", score * 100.0);
                }
                Some("done") => {
                    if !opts.json {
                        let steps = event.get("steps").and_then(Json::as_u64).unwrap_or(0);
                        println!("trace complete after {steps} instructions");
                        if let Some(detection) = event.get("detection") {
                            print_detection(detection)?;
                        }
                    }
                    return Ok(());
                }
                _ => {}
            }
        }
    }
}

/// Render a response's `timings` object on stderr, one `stage=ms` pair
/// per wire field, with the span-derived DTW split (present only when
/// the server runs with --metrics) indented below.
fn print_wire_timings(timings: &Json) {
    let Json::Obj(fields) = timings else { return };
    let ms = |v: &Json| v.as_f64().unwrap_or(0.0) / 1e6;
    let parts: Vec<String> = fields
        .iter()
        .filter_map(|(k, v)| {
            k.strip_suffix("_ns")
                .map(|name| format!("{name}={:.3}ms", ms(v)))
        })
        .collect();
    eprintln!("timings: {}", parts.join(" "));
    if let Some(Json::Obj(detail)) = timings.get("detail") {
        let pairs: Vec<String> = detail
            .iter()
            .filter_map(|(k, v)| {
                k.strip_suffix("_ns")
                    .map(|name| format!("{name}={:.3}ms", ms(v)))
            })
            .collect();
        eprintln!("  detail: {}", pairs.join(" "));
    }
}

/// Print a detection object for humans — the one renderer behind
/// `classify`, `submit` and `watch`, so a wire detection prints exactly
/// like the offline one: the best-matching PoC with its score, then the
/// verdict line of [`scaguard::Detection`]'s `Display`.
fn print_detection(detection: &Json) -> Result<(), Box<dyn Error>> {
    let best = detection
        .get("best_score")
        .and_then(Json::as_f64)
        .ok_or("malformed detection: no best_score")?;
    if let Some(poc) = detection.get("best_poc").and_then(Json::as_str) {
        println!("best match: {poc} ({:.2}%)", best * 100.0);
    }
    match detection.get("family").and_then(Json::as_str) {
        Some(family) => println!("ATTACK {family} (score {:.2}%)", best * 100.0),
        None => println!("benign (best score {:.2}%)", best * 100.0),
    }
    Ok(())
}

/// Summarize a `--telemetry` JSONL trace: span timings grouped by name,
/// histogram percentiles, counter totals.
fn cmd_stats(path: &str) -> Result<(), Box<dyn Error>> {
    let text = fs::read_to_string(path)?;
    let mut spans: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut counters: Vec<(String, u64)> = Vec::new();
    let mut gauges: Vec<(String, u64)> = Vec::new();
    let mut hists: Vec<(String, u64, u64, u64, u64)> = Vec::new();
    let mut requests: Vec<sca_telemetry::RequestSummary> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record =
            sca_telemetry::parse_line(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        match record {
            Record::Span(s) => {
                let entry = spans.entry(s.name).or_insert((0, 0));
                entry.0 += 1;
                entry.1 += s.duration_ns;
            }
            Record::Counter { name, value } => counters.push((name, value)),
            Record::Gauge { name, value } => gauges.push((name, value)),
            Record::Histogram {
                name,
                count,
                p50,
                p90,
                p99,
                ..
            } => hists.push((name, count, p50, p90, p99)),
            Record::Request(r) => requests.push(r),
        }
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    println!("spans ({}):", path);
    println!(
        "  {:<32} {:>6} {:>12} {:>12}",
        "name", "count", "total ms", "mean ms"
    );
    for (name, (count, total)) in &spans {
        println!(
            "  {name:<32} {count:>6} {:>12.3} {:>12.3}",
            ms(*total),
            ms(*total) / *count as f64
        );
    }
    if !hists.is_empty() {
        println!("histograms (ns):");
        println!(
            "  {:<32} {:>6} {:>12} {:>12} {:>12}",
            "name", "count", "p50", "p90", "p99"
        );
        for (name, count, p50, p90, p99) in &hists {
            println!("  {name:<32} {count:>6} {p50:>12} {p90:>12} {p99:>12}");
        }
    }
    if !counters.is_empty() {
        println!("counters:");
        for (name, value) in &counters {
            println!("  {name:<32} {value}");
        }
    }
    if !gauges.is_empty() {
        println!("gauges:");
        for (name, value) in &gauges {
            println!("  {name:<32} {value}");
        }
    }
    if !requests.is_empty() {
        println!("requests:");
        for r in &requests {
            println!(
                "  trace={:<8} {:<10} {:<8} {:>10.3} ms  {}",
                r.trace_id,
                r.name,
                r.outcome,
                ms(r.latency_ns),
                r.verdict.as_deref().unwrap_or("-")
            );
        }
    }
    Ok(())
}

/// Fetch and render a running server's `metrics` snapshot; with
/// `--watch`, clear the terminal and refresh every `--interval-ms`.
fn cmd_stats_remote(opts: &Options) -> Result<(), Box<dyn Error>> {
    let addr = opts.addr.as_deref().expect("checked by the caller");
    let mut client = Client::connect(addr)?;
    loop {
        let frame = client.metrics()?;
        if let Some(kind) = protocol::error_kind(&frame) {
            return Err(format!("server refused `metrics` ({kind})").into());
        }
        let mut out = String::new();
        render_metrics(&frame, &mut out);
        if opts.watch {
            // ANSI clear + home, then one coherent screenful.
            print!("\x1b[2J\x1b[H{out}");
            std::io::stdout().flush()?;
        } else {
            print!("{out}");
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(opts.interval_ms));
    }
}

/// Render one `metrics` frame as the live-view screen.
fn render_metrics(frame: &Json, out: &mut String) {
    use std::fmt::Write as _;
    let Some(m) = frame.get("metrics") else {
        let _ = writeln!(out, "malformed response: no metrics object");
        return;
    };
    let telemetry = m.get("telemetry") == Some(&Json::Bool(true));
    let _ = writeln!(
        out,
        "telemetry: {}",
        if telemetry {
            "on"
        } else {
            "off (gauges only; start the server with --metrics)"
        }
    );
    let section = |out: &mut String, title: &str, obj: Option<&Json>| {
        let Some(Json::Obj(fields)) = obj else { return };
        if fields.is_empty() {
            return;
        }
        let _ = writeln!(out, "{title}:");
        for (name, value) in fields {
            let _ = writeln!(out, "  {name:<32} {}", value.as_f64().unwrap_or(0.0));
        }
    };
    section(out, "gauges", m.get("gauges"));
    section(out, "counters", m.get("counters"));
    if let Some(Json::Obj(hists)) = m.get("histograms") {
        if !hists.is_empty() {
            let _ = writeln!(out, "histograms (ns):");
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>12} {:>12} {:>12} {:>12}",
                "name", "count", "p50", "p90", "p99", "max"
            );
            for (name, h) in hists {
                let f = |k: &str| h.get(k).and_then(Json::as_u64).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "  {name:<28} {:>8} {:>12} {:>12} {:>12} {:>12}",
                    f("count"),
                    f("p50"),
                    f("p90"),
                    f("p99"),
                    f("max")
                );
            }
        }
    }
}

fn cmd_model(path: &str, opts: &Options) -> Result<(), Box<dyn Error>> {
    let program = load_program(path)?;
    let outcome = build_model(&program, &opts.victim, &ModelingConfig::default())?;
    println!(
        "{}: {} blocks, {} potential, {} attack-relevant",
        program.name(),
        outcome.cfg.len(),
        outcome.potential_bbs.len(),
        outcome.relevant_bbs.len()
    );
    for step in outcome.cst_bbs.steps() {
        let insts: Vec<String> = step.norm_insts.iter().map(|i| i.to_string()).collect();
        println!(
            "  {:#08x} t={:<8} P={:.4}  [{}]",
            step.bb_addr,
            step.first_seen,
            step.cst.change(),
            insts.join("; ")
        );
    }
    Ok(())
}

fn cmd_explain(path: &str, opts: &Options, builder: &ModelBuilder) -> Result<(), Box<dyn Error>> {
    let detector = open_detector("explain", opts)?;
    let program = load_program(path)?;
    let model = builder.build_cst(&program, &opts.victim)?;
    let best = detector
        .scan(&model, &jobs_request(opts))?
        .best
        .ok_or("the repository is empty")?;
    let entry = &detector.repository().entries()[best.index];
    println!(
        "best match: {} ({})\n{}",
        best.poc,
        best.family,
        explain_similarity(&model, &entry.model)
    );
    Ok(())
}

fn cmd_asm(path: &str) -> Result<(), Box<dyn Error>> {
    let program = load_program(path)?;
    print!("{}", program.disasm());
    let stats = sca_isa::analysis::analyze(&program);
    eprintln!("{stats}");
    if stats.unreachable > 0 {
        eprintln!("warning: {} unreachable instruction(s)", stats.unreachable);
    }
    let uninit = sca_isa::analysis::possibly_uninitialized_reads(&program);
    if !uninit.is_empty() {
        let regs: Vec<String> = uninit.iter().map(|r| r.to_string()).collect();
        eprintln!(
            "warning: registers possibly read before initialization: {}",
            regs.join(", ")
        );
    }
    Ok(())
}

fn run() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.first().is_some_and(|a| a == "help")
    {
        println!("{}", usage());
        return Ok(());
    }
    if args.iter().any(|a| a == "--version" || a == "-V") {
        println!("scaguard {}", env!("CARGO_PKG_VERSION"));
        return Ok(());
    }
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return Err(usage().into()),
    };
    let path = rest.first().ok_or(usage())?;
    if cmd == "asm" {
        return cmd_asm(path);
    }
    if cmd == "stats" {
        // Two shapes: a JSONL file to summarize, or --addr (optionally
        // --watch) to scrape a running server's `metrics`.
        if path.starts_with("--") {
            let opts = parse_options(rest)?;
            if opts.addr.is_none() {
                return Err("stats needs a <telemetry.jsonl> file or --addr <host:port>".into());
            }
            return cmd_stats_remote(&opts);
        }
        return cmd_stats(path);
    }
    if cmd == "submit" {
        // Every leading non-flag argument is a program path.
        let split = rest
            .iter()
            .position(|a| a.starts_with("--"))
            .unwrap_or(rest.len());
        let opts = parse_options(&rest[split..])?;
        return cmd_submit(&rest[..split], &opts);
    }
    let opts = parse_options(&rest[1..])?;
    if cmd == "serve" {
        return cmd_serve(path, &opts);
    }
    if cmd == "watch" {
        return cmd_watch(path, &opts);
    }
    if opts.telemetry.is_some() {
        sca_telemetry::set_enabled(true);
    }
    // `model` prints CFG and graph counts, which no cached model holds,
    // so it runs the pipeline itself and ignores `--model-cache`.
    let result = if cmd == "model" {
        cmd_model(path, &opts)
    } else {
        let builder = make_builder(&opts)?;
        let result = match cmd {
            "build-repo" => cmd_build_repo(path, &opts, &builder),
            "classify" => cmd_classify(path, &opts, &builder),
            "explain" => cmd_explain(path, &opts, &builder),
            _ => Err(usage().into()),
        };
        builder.save_disk_cache()?;
        result
    };
    finish_telemetry(&opts)?;
    result
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

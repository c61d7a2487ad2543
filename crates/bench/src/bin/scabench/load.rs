//! Load generators: the timed phases of the workloads.
//!
//! Each generator drives the running server (or the CLI) from outside and
//! returns one [`Op`] per measured operation plus the phase's totals. An
//! operation fails when the server answers with an error, or when a
//! detection differs from the first one this run saw for the same
//! program; a transport error aborts the run. The generator never uses
//! more than two threads or two connections.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use sca_isa::rng::SmallRng;
use sca_serve::protocol::{self, read_frame_limited, Request};
use sca_serve::{BatchProgram, Client, ClientConfig};
use sca_telemetry::Json;

use crate::gen::Prog;
use crate::proc;

/// One measured operation.
#[derive(Debug, Clone, Default)]
pub struct Op {
    /// Client-observed latency; for open-loop load, from the due time.
    pub latency_ns: u64,
    /// How late an open-loop generator sent the request (0 otherwise).
    pub lag_ns: u64,
    /// Programs (or stream increments) the operation carried.
    pub items: u64,
    /// The server's trace id, joining the op to its span tree.
    pub trace_id: u64,
    /// The server's `timings` object, when the request asked for one.
    pub timings: Option<Json>,
}

impl Op {
    /// A `timings` stage in nanoseconds (0 when absent).
    pub fn stage_ns(&self, key: &str) -> f64 {
        self.timings
            .as_ref()
            .and_then(|t| t.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }
}

/// What a timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub ops: Vec<Op>,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed: Duration,
    /// `reload-repo` round trips, in ms.
    pub reloads_ms: Vec<f64>,
    /// Attack streams that alarmed: time from the `watch` send to the
    /// `alarm` event.
    pub alarms_ms: Vec<f64>,
}

impl Phase {
    pub fn items(&self) -> u64 {
        self.ops.iter().map(|o| o.items).sum()
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.latency_ns as f64 / 1e6).collect()
    }
}

/// What the server answered per program this run: the first detection,
/// and for watch streams the alarm step. Later answers must match.
#[derive(Default)]
pub struct Answers {
    // Compared as parsed values: equal values render to equal bytes, and
    // comparing them costs no rendering.
    detections: HashMap<String, Json>,
    alarms: HashMap<String, Option<u64>>,
}

impl Answers {
    /// Record `detection` for `name`; false if it differs from the first.
    pub fn check(&mut self, name: &str, detection: &Json) -> bool {
        match self.detections.get(name) {
            Some(first) => first == detection,
            None => {
                self.detections.insert(name.to_string(), detection.clone());
                true
            }
        }
    }

    /// Record a stream's alarm step; false if it differs from the first.
    pub fn check_alarm(&mut self, name: &str, at_step: Option<u64>) -> bool {
        *self.alarms.entry(name.to_string()).or_insert(at_step) == at_step
    }

    pub fn detection(&self, name: &str) -> Option<&Json> {
        self.detections.get(name)
    }
}

fn bad_data(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Longest response line accepted: an 8-program batch against 1028
/// entries answers with about 0.7 MB of per-entry scores.
const MAX_RESPONSE: usize = 64 << 20;

/// A client whose reads never time out before a slow phase ends.
pub fn connect(addr: &str) -> io::Result<Client> {
    Client::connect_with(
        addr,
        ClientConfig {
            io_timeout: Some(Duration::from_secs(120)),
            max_frame_len: MAX_RESPONSE,
            ..ClientConfig::default()
        },
    )
}

fn classify_request(p: &Prog) -> Request {
    Request::Classify {
        name: p.name.clone(),
        program: p.source.clone(),
        victim: p.victim.into(),
        threshold: None,
        deadline_ms: None,
        debug_sleep_ms: 0,
        debug_panic: false,
    }
}

/// The `classify-batch` frame for `progs`, asking for `timings`.
pub fn batch_frame<'a>(progs: impl IntoIterator<Item = &'a Prog>) -> Json {
    protocol::with_timings_flag(&Request::ClassifyBatch {
        programs: progs
            .into_iter()
            .map(|p| BatchProgram {
                name: p.name.clone(),
                program: p.source.clone(),
                victim: p.victim.into(),
                threshold: None,
            })
            .collect(),
        deadline_ms: None,
        debug_sleep_ms: 0,
    })
}

/// The per-program detections of a `classify-batch` answer, in order;
/// `None` for a program the server failed.
pub fn batch_detections(response: &Json, expected: usize) -> io::Result<Vec<Option<&Json>>> {
    match response.get("results") {
        Some(Json::Arr(results)) if results.len() == expected => {
            Ok(results.iter().map(|r| r.get("detection")).collect())
        }
        _ if !protocol::is_ok(response) => Ok(vec![None; expected]),
        _ => Err(bad_data(format!("malformed batch answer: {response}"))),
    }
}

/// The open-loop schedule: `(due offset, program index)` pairs with
/// exponential inter-arrival gaps at each `(rate, length)` step,
/// deterministic in `seed`.
pub fn schedule(seed: u64, steps: &[(f64, Duration)], programs: usize) -> Vec<(Duration, usize)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut step_start = 0.0f64;
    for &(rate, length) in steps {
        let end = step_start + length.as_secs_f64();
        let mut t = step_start;
        loop {
            // Inverse-CDF exponential draw from 53 uniform bits in (0, 1].
            let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
            t += -u.ln() / rate;
            if t >= end {
                break;
            }
            out.push((Duration::from_secs_f64(t), rng.gen_range(0..programs)));
        }
        step_start = end;
    }
    out
}

/// Open loop on one connection: a writer thread sends tagged `classify`
/// frames (with `timings`) at their due times while this thread reads the
/// answers. Requests are timed from their due time, so a stall also
/// charges the requests queued behind it.
pub fn open_loop(
    addr: &str,
    progs: &[Prog],
    steps: &[(f64, Duration)],
    seed: u64,
    answers: &mut Answers,
) -> io::Result<Phase> {
    let plan = schedule(seed, steps, progs.len());
    // Render each program's frame once, minus the opening brace, so the
    // writer only splices a tag in front.
    let tails: Vec<String> = progs
        .iter()
        .map(|p| protocol::with_timings_flag(&classify_request(p)).to_string()[1..].to_string())
        .collect();
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let start = Instant::now() + Duration::from_millis(5);
    let plan_ref = &plan;
    let (lags, received) = thread::scope(|s| {
        let sender = s.spawn(move || -> io::Result<Vec<Duration>> {
            let _sp = sca_telemetry::span("bench.open_loop.send");
            let mut lags = Vec::with_capacity(plan_ref.len());
            let mut buf = Vec::new();
            for (i, &(due, prog)) in plan_ref.iter().enumerate() {
                let due = start + due;
                let now = Instant::now();
                if due > now {
                    thread::sleep(due - now);
                }
                buf.clear();
                writeln!(buf, "{{\"id\":{i},{}", tails[prog])?;
                writer.write_all(&buf)?;
                lags.push(Instant::now().saturating_duration_since(due));
            }
            Ok(lags)
        });
        let _sp = sca_telemetry::span("bench.open_loop.receive");
        let mut received = Vec::with_capacity(plan_ref.len());
        for _ in 0..plan_ref.len() {
            let line = read_frame_limited(&mut reader, MAX_RESPONSE)
                .map_err(io::Error::from)?
                .ok_or_else(|| bad_data("server closed the connection"))?;
            received.push((Instant::now(), line));
        }
        let lags = sender.join().expect("writer thread panicked")?;
        io::Result::Ok((lags, received))
    })?;
    let mut phase = Phase {
        attempted: plan.len() as u64,
        elapsed: start.elapsed(),
        ..Phase::default()
    };
    // Parse after the phase so the reader only ever waits on the socket.
    for (at, line) in received {
        let frame = Json::parse(&line).map_err(|e| bad_data(e.to_string()))?;
        let id = protocol::request_id(&frame)
            .and_then(|id| id.as_u64())
            .map(|id| id as usize)
            .filter(|&id| id < plan.len())
            .ok_or_else(|| bad_data("response without a known id"))?;
        let (due, prog) = plan[id];
        let ok = frame
            .get("detection")
            .is_some_and(|d| answers.check(&progs[prog].name, d));
        if !ok {
            phase.failed += 1;
            continue;
        }
        phase.ops.push(Op {
            latency_ns: nanos(at.saturating_duration_since(start + due)),
            lag_ns: nanos(lags[id]),
            items: 1,
            trace_id: protocol::trace_id(&frame).unwrap_or(0),
            timings: protocol::timings(&frame).cloned(),
        });
    }
    Ok(phase)
}

/// How long a closed loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// This many frames, cycling over the programs.
    Frames(usize),
    /// Cycle over the programs until this much time has passed.
    For(Duration),
}

/// Alternate `reload-repo` between two byte-identical repository copies
/// every `every`, from the second connection.
pub struct Reloads<'a> {
    pub every: Duration,
    pub paths: [&'a Path; 2],
}

/// Closed loop over `classify-batch` frames of `frame` programs on
/// `conns` (1 or 2) connections, one thread each: each connection sends
/// its next frame as soon as the previous one is answered.
pub fn closed_loop(
    addr: &str,
    progs: &[Prog],
    frame: usize,
    conns: usize,
    limit: Limit,
    reloads: Option<Reloads<'_>>,
    answers: &mut Answers,
) -> io::Result<Phase> {
    let frames = progs.len().div_ceil(frame);
    let chunk =
        |k: usize| &progs[(k % frames) * frame..((k % frames + 1) * frame).min(progs.len())];
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    // Answers are checked as they arrive so no response outlives its
    // check: a large-repository batch answer is over a megabyte.
    let shared = Mutex::new((Phase::default(), answers));
    let drive = |conn: usize| -> io::Result<()> {
        let mut client = connect(addr)?;
        let mut next_reload = reloads.as_ref().map(|r| (start + r.every, 0usize));
        loop {
            if let (1, Some((due, n)), Some(r)) = (conn, &mut next_reload, &reloads) {
                if Instant::now() >= *due {
                    let path = r.paths[(*n + 1) % 2].to_string_lossy();
                    let t = Instant::now();
                    let answer = {
                        let _sp = sca_telemetry::span("bench.reload");
                        client.reload_repo(Some(&path))?
                    };
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    let mut guard = shared.lock().expect("no thread panics holding the lock");
                    let phase = &mut guard.0;
                    phase.attempted += 1;
                    if protocol::is_ok(&answer) {
                        phase.reloads_ms.push(ms);
                    } else {
                        phase.failed += 1;
                    }
                    *due += r.every;
                    *n += 1;
                }
            }
            let k = next.fetch_add(1, Ordering::Relaxed);
            match limit {
                Limit::Frames(n) if k >= n => return Ok(()),
                Limit::For(d) if start.elapsed() >= d => return Ok(()),
                _ => {}
            }
            let batch = chunk(k);
            let request = batch_frame(batch);
            let t = Instant::now();
            let response = {
                let _sp = sca_telemetry::span("bench.classify_batch");
                client.request(&request)?
            };
            let op = Op {
                latency_ns: nanos(t.elapsed()),
                lag_ns: 0,
                items: batch.len() as u64,
                trace_id: protocol::trace_id(&response).unwrap_or(0),
                timings: protocol::timings(&response).cloned(),
            };
            let detections = batch_detections(&response, batch.len())?;
            let mut guard = shared.lock().expect("no thread panics holding the lock");
            let (phase, answers) = &mut *guard;
            let mismatched = batch
                .iter()
                .zip(detections)
                .filter(|(p, d)| !d.is_some_and(|d| answers.check(&p.name, d)))
                .count() as u64;
            phase.attempted += batch.len() as u64;
            phase.failed += mismatched;
            if mismatched == 0 {
                phase.ops.push(op);
            }
        }
    };
    thread::scope(|s| {
        let others: Vec<_> = (1..conns).map(|c| s.spawn(move || drive(c))).collect();
        let mine = drive(0);
        others
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .chain([mine])
            .collect::<io::Result<()>>()
    })?;
    let mut phase = shared.into_inner().expect("threads joined").0;
    phase.elapsed = start.elapsed();
    Ok(phase)
}

/// What one watch stream produced.
pub struct Stream {
    pub done: Option<Json>,
    pub alarm_step: Option<u64>,
    pub alarm_after: Option<Duration>,
    pub pushes: Vec<Op>,
}

/// Increments committed per `watch-push`.
const PUSH_INCREMENTS: u64 = 4;

/// Run one `watch` stream to `done`, pushing `PUSH_INCREMENTS` increments
/// per `watch-push` frame.
pub fn watch_stream(client: &mut Client, p: &Prog) -> io::Result<Stream> {
    let opened = Instant::now();
    let ack = client.watch_open(&p.name, &p.source, p.victim, &Default::default())?;
    let id = ack
        .get("stream")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad_data(format!("watch refused: {ack}")))?;
    let mut out = Stream {
        done: None,
        alarm_step: None,
        alarm_after: None,
        pushes: Vec::new(),
    };
    loop {
        let t = Instant::now();
        let events = {
            let _sp = sca_telemetry::span("bench.watch_push");
            client.watch_push(id, PUSH_INCREMENTS)?
        };
        let mut op = Op {
            latency_ns: nanos(t.elapsed()),
            trace_id: events.first().and_then(protocol::trace_id).unwrap_or(0),
            ..Op::default()
        };
        let mut ended = false;
        for e in &events {
            match e.get("event").and_then(Json::as_str) {
                Some("progress") => op.items += 1,
                Some("alarm") => {
                    out.alarm_after = Some(opened.elapsed());
                    out.alarm_step = e
                        .get("alarm")
                        .and_then(|a| a.get("at_step"))
                        .and_then(Json::as_u64);
                }
                Some("done") => {
                    out.done = e.get("detection").cloned();
                    ended = true;
                }
                // An error event ends the stream without a detection,
                // which the caller counts as failed.
                _ => ended |= !protocol::is_ok(e),
            }
        }
        out.pushes.push(op);
        if ended {
            return Ok(out);
        }
    }
}

/// Closed loop on one connection: one `watch` stream per program, each
/// run to `done`; every push round trip is an op.
pub fn watch_loop(addr: &str, progs: &[Prog], answers: &mut Answers) -> io::Result<Phase> {
    let mut client = connect(addr)?;
    let start = Instant::now();
    let mut phase = Phase::default();
    for p in progs {
        let stream = watch_stream(&mut client, p)?;
        phase.attempted += stream.pushes.len() as u64;
        let consistent = stream
            .done
            .as_ref()
            .is_some_and(|d| answers.check(&p.name, d))
            && answers.check_alarm(&p.name, stream.alarm_step);
        if consistent {
            phase.ops.extend(stream.pushes);
        } else {
            phase.failed += stream.pushes.len() as u64;
        }
        if p.attack {
            phase
                .alarms_ms
                .extend(stream.alarm_after.map(|d| d.as_secs_f64() * 1e3));
        }
    }
    phase.elapsed = start.elapsed();
    Ok(phase)
}

/// `scaguard classify <sasm> --repo <repo> --victim <spec> --json` for
/// one program (`sasm` holds `p`): its rendered detection.
pub fn cli_classify(p: &Prog, sasm: &Path, repo: &Path) -> io::Result<String> {
    let _sp = sca_telemetry::span("bench.cli_classify");
    let out = proc::scaguard(&[
        "classify",
        &sasm.to_string_lossy(),
        "--repo",
        &repo.to_string_lossy(),
        "--victim",
        p.victim,
        "--json",
    ])?;
    Ok(String::from_utf8_lossy(&out.stdout).trim_end().to_string())
}

/// `runs` sequential one-shot `scaguard classify` processes, cycling over
/// the programs (`sasm[i]` holds `progs[i]`).
pub fn oneshot_loop(
    progs: &[Prog],
    sasm: &[PathBuf],
    repo: &Path,
    runs: usize,
    answers: &mut Answers,
) -> io::Result<Phase> {
    let start = Instant::now();
    let mut phase = Phase::default();
    for i in 0..runs {
        let p = &progs[i % progs.len()];
        let t = Instant::now();
        let text = cli_classify(p, &sasm[i % progs.len()], repo)?;
        let latency_ns = nanos(t.elapsed());
        phase.attempted += 1;
        let detection = Json::parse(&text).map_err(|e| bad_data(e.to_string()))?;
        if answers.check(&p.name, &detection) {
            phase.ops.push(Op {
                latency_ns,
                items: 1,
                ..Op::default()
            });
        } else {
            phase.failed += 1;
        }
    }
    phase.elapsed = start.elapsed();
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let steps = [
            (400.0, Duration::from_millis(500)),
            (1600.0, Duration::from_millis(500)),
        ];
        let a = schedule(5, &steps, 64);
        assert_eq!(a, schedule(5, &steps, 64));
        assert_ne!(a, schedule(6, &steps, 64));
        // Sorted due times, about rate x length requests per step.
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        let first = a
            .iter()
            .filter(|(d, _)| *d < Duration::from_millis(500))
            .count();
        assert!((150..=250).contains(&first), "{first}");
        assert!(
            (600..=1000).contains(&(a.len() - first)),
            "{}",
            a.len() - first
        );
        assert!(a.iter().all(|&(_, p)| p < 64));
    }
}

//! Observability tests for the resident service: per-request trace ids
//! on every frame shape, the stage-timing breakdown, wire metrics
//! exposition, the flight recorder's outcome coverage, the slow-request
//! dump, and the disabled-telemetry guarantee.
//!
//! The telemetry registry is process-global, so every test that turns
//! it on/off or asserts registry contents serializes on
//! [`telemetry_lock`]; trace-id and flight-recorder behavior is
//! server-owned and needs no such care.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::Duration;

use sca_attacks::poc::{self, PocParams};
use sca_attacks::{AttackFamily, Sample};
use sca_serve::protocol::{self, error_kind, is_ok, Request, KIND_OVERLOADED};
use sca_serve::{spawn, Client, ServeConfig};
use sca_telemetry::{parse_line, Json, Outcome, Record};
use scaguard::{
    detection_json, load_repository, save_repository, Detector, ModelBuilder, ModelRepository,
    ModelingConfig, ScanRequest,
};

struct Fixture {
    dir: PathBuf,
    repo_all: PathBuf,
    target_src: String,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("sca-serve-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tempdir");
        let params = PocParams::default();
        let pocs: Vec<(AttackFamily, Sample)> = AttackFamily::ALL
            .iter()
            .map(|&f| (f, poc::representative(f, &params)))
            .collect();
        let repo_all = dir.join("all.repo");
        save_pocs(&pocs, &repo_all);
        let target_src = poc::flush_reload_iaik(&params).program.disasm();
        Fixture {
            dir,
            repo_all,
            target_src,
        }
    })
}

fn save_pocs(pocs: &[(AttackFamily, Sample)], path: &Path) {
    let cfg = ModelingConfig::default();
    let mut repo = ModelRepository::new();
    for (family, sample) in pocs {
        repo.add_poc(*family, &sample.program, &sample.victim, &cfg)
            .expect("model poc");
    }
    save_repository(&repo, path).expect("save repo");
}

fn classify_request(name: &str, sleep_ms: u64, deadline_ms: Option<u64>) -> Request {
    let fx = fixture();
    Request::Classify {
        name: name.into(),
        program: fx.target_src.clone(),
        victim: "shared:3".into(),
        threshold: None,
        deadline_ms,
        debug_sleep_ms: sleep_ms,
        debug_panic: false,
    }
}

/// Serialize every test in this file: the telemetry registry is
/// process-global, so a server whose requests overlap another test
/// flipping the enabled flag would record half-traced spans. Each test
/// starts with the registry disabled and empty.
fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    sca_telemetry::set_enabled(false);
    sca_telemetry::reset();
    guard
}

#[test]
fn every_frame_carries_a_unique_trace_id() {
    let _guard = telemetry_lock();
    let fx = fixture();
    let handle = spawn(ServeConfig::new(&fx.repo_all)).expect("spawn server");

    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut roundtrip = |frame: &str| -> Json {
        writeln!(writer, "{frame}").expect("write");
        writer.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        Json::parse(line.trim_end()).expect("response is JSON")
    };

    // One of everything: control, work, an error path, and garbage that
    // never parses as a request. Every single response must be nameable.
    let responses = [
        roundtrip("{\"cmd\":\"ping\"}"),
        roundtrip("{\"cmd\":\"stats\"}"),
        roundtrip(&classify_request("target", 0, None).to_json().to_string()),
        roundtrip("{\"cmd\":\"wat\"}"),
        roundtrip("this is not json"),
    ];

    let mut seen = BTreeSet::new();
    for resp in &responses {
        let id =
            protocol::trace_id(resp).unwrap_or_else(|| panic!("frame without a trace id: {resp}"));
        assert!(seen.insert(id), "trace id {id} reused: {resp}");
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn timings_ride_the_envelope_only_when_asked_and_sum_to_the_total() {
    let _guard = telemetry_lock();
    let fx = fixture();
    let handle = spawn(ServeConfig::new(&fx.repo_all)).expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // The default response is unchanged: no timings object.
    let plain = client
        .send(&classify_request("target", 0, None))
        .expect("plain reply");
    assert!(is_ok(&plain));
    assert!(protocol::timings(&plain).is_none(), "unrequested timings");

    // Flagged, the envelope carries the breakdown — with the debug
    // sleep making one stage large enough that the sum check has teeth.
    let timed = client
        .send_timed(&classify_request("target", 50, None))
        .expect("timed reply");
    assert!(is_ok(&timed), "timed request failed: {timed}");
    let timings = protocol::timings(&timed).expect("timings object");

    let total_ns = timings
        .get("total_ns")
        .and_then(Json::as_u64)
        .expect("total_ns");
    let stage_ns = |name: &str| {
        timings
            .get(name)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing stage {name}: {timings}"))
    };
    let stages = [
        "queue_wait_ns",
        "debug_sleep_ns",
        "model_ns",
        "scan_ns",
        "render_ns",
    ];
    let sum: u64 = stages.iter().map(|s| stage_ns(s)).sum();
    assert!(stage_ns("debug_sleep_ns") >= 50_000_000);
    assert!(
        sum <= total_ns,
        "stages ({sum}ns) exceed total ({total_ns}ns)"
    );
    assert!(
        total_ns - sum < 25_000_000,
        "untimed gap too large: total={total_ns}ns stages={sum}ns"
    );
    // Telemetry is off, so there is no span-derived DTW split.
    assert!(timings.get("detail").is_none());

    // The detection itself is untouched by the flag.
    assert_eq!(
        plain.get("detection").expect("detection").to_string(),
        timed.get("detection").expect("detection").to_string()
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn metrics_command_exposes_counters_gauges_and_histograms() {
    let _guard = telemetry_lock();
    let fx = fixture();
    let mut cfg = ServeConfig::new(&fx.repo_all);
    cfg.metrics = true;
    let handle = spawn(cfg).expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    for i in 0..3 {
        let resp = client
            .send(&classify_request(&format!("warm-{i}"), 0, None))
            .expect("classify");
        assert!(is_ok(&resp), "classify failed: {resp}");
    }

    let wire = client
        .send(&classify_request("target", 0, None))
        .expect("classify");
    assert!(is_ok(&wire), "classify failed: {wire}");

    let frame = client.metrics().expect("metrics");
    assert!(is_ok(&frame), "metrics failed: {frame}");
    let m = frame.get("metrics").expect("metrics object");
    assert_eq!(m.get("telemetry"), Some(&Json::Bool(true)));

    let counter = |name: &str| {
        m.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing counter {name}: {m}"))
    };
    assert!(counter("serve.requests") >= 4);
    assert!(counter("serve.completed") >= 4);

    let gauge = |name: &str| {
        m.get("gauges")
            .and_then(|g| g.get(name))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing gauge {name}: {m}"))
    };
    assert_eq!(gauge("serve.workers"), 4);
    assert_eq!(gauge("serve.repo_generation"), 1);
    assert_eq!(gauge("serve.repo_entries"), 4);
    assert!(gauge("serve.model_cache_entries") >= 1);
    assert!(gauge("serve.flight_recorded") >= 4);
    // A worker decrements its busy flag *after* sending the reply, so
    // the gauge may still count recently-finished workers here; it can
    // never exceed the pool.
    assert!(gauge("serve.busy_workers") <= 4);
    assert_eq!(gauge("serve.in_flight"), 0);

    let latency = m
        .get("histograms")
        .and_then(|h| h.get("serve.latency_ns"))
        .expect("serve.latency_ns histogram");
    let field = |name: &str| {
        latency
            .get(name)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing histogram field {name}: {latency}"))
    };
    assert!(field("count") >= 4);
    assert!(field("min") <= field("p50"));
    assert!(field("p50") <= field("p99"));
    assert!(field("p99") <= field("max"));

    // Per-request span draining keeps the resident registry's span log
    // empty between requests — a resident server must not grow without
    // bound.
    let leaked: Vec<String> = sca_telemetry::snapshot()
        .spans
        .iter()
        .map(|s| format!("{}(trace={:?})", s.name, s.attr("trace")))
        .collect();
    assert!(
        leaked.is_empty(),
        "request spans leaked into the resident registry: {leaked:?}"
    );

    // Telemetry on must not perturb results: the wire detection is
    // still byte-identical to the offline path. (This runs last — the
    // offline pipeline executes on the test thread, outside any trace
    // scope, so its spans would land in the registry.)
    let repo = load_repository(&fx.repo_all).expect("load repo");
    let detector = Detector::new(repo, Detector::DEFAULT_THRESHOLD).expect("threshold");
    let builder = ModelBuilder::new(&ModelingConfig::default());
    let program = sca_isa::assemble("target", &fx.target_src).expect("assemble");
    let victim = protocol::parse_victim("shared:3").expect("victim");
    let model = builder.build_cst(&program, &victim).expect("model");
    let offline = detection_json(
        "target",
        &detector
            .scan(&model, &ScanRequest::default())
            .expect("no deadline"),
    )
    .to_string();
    assert_eq!(
        wire.get("detection").expect("detection").to_string(),
        offline,
        "telemetry perturbed the detection"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn flight_recorder_captures_ok_shed_timeout_and_panic() {
    let _guard = telemetry_lock();
    let fx = fixture();
    let mut cfg = ServeConfig::new(&fx.repo_all);
    cfg.workers = 1;
    cfg.queue_depth = 1;
    let handle = spawn(cfg).expect("spawn server");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");

    // ok — and the flight entry carries the verdict.
    let ok = client
        .send(&classify_request("target", 0, None))
        .expect("ok reply");
    assert!(is_ok(&ok));

    // timeout — 1ms budget against 80ms of work.
    let late = client
        .send(&classify_request("late", 80, Some(1)))
        .expect("late reply");
    assert_eq!(error_kind(&late), Some(protocol::KIND_DEADLINE_EXCEEDED));

    // panic — the injected fault, isolated by the worker's catch.
    let boom = client
        .request(&Json::parse(
            &format!(
                "{{\"cmd\":\"classify\",\"name\":\"boom\",\"program\":{},\"victim\":\"shared:3\",\"debug_panic\":true}}",
                Json::Str(fx.target_src.clone())
            ),
        )
        .expect("panic frame"))
        .expect("panic reply");
    assert_eq!(error_kind(&boom), Some(protocol::KIND_INTERNAL_ERROR));

    // shed — block the single worker, fill the single queue slot, burst.
    let blocker = thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.send(&classify_request("blocker", 600, None))
            .expect("blocker reply")
    });
    thread::sleep(Duration::from_millis(150));
    let burst: Vec<_> = (0..4)
        .map(|i| {
            thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.send(&classify_request(&format!("burst-{i}"), 200, None))
                    .expect("burst reply")
            })
        })
        .collect();
    let shed = burst
        .into_iter()
        .map(|t| t.join().unwrap())
        .filter(|r| error_kind(r) == Some(KIND_OVERLOADED))
        .count();
    assert!(shed >= 1, "no request was shed");
    assert!(is_ok(&blocker.join().unwrap()));

    // The ring saw all four outcomes, with the right shapes attached.
    let entries = handle.flight();
    let outcomes: BTreeSet<Outcome> = entries.iter().map(|e| e.outcome).collect();
    for want in [Outcome::Ok, Outcome::Shed, Outcome::Timeout, Outcome::Panic] {
        assert!(
            outcomes.contains(&want),
            "missing outcome {want}: {entries:?}"
        );
    }
    let ok_entry = entries
        .iter()
        .find(|e| e.outcome == Outcome::Ok)
        .expect("ok entry");
    assert_eq!(ok_entry.verdict.as_deref(), Some("attack"));
    assert!(ok_entry.latency_ns > 0);
    assert!(
        ok_entry.stages.iter().any(|(k, _)| k == "scan_ns"),
        "ok entry without stage timings: {ok_entry:?}"
    );
    let shed_entry = entries
        .iter()
        .find(|e| e.outcome == Outcome::Shed)
        .expect("shed entry");
    assert!(shed_entry.verdict.is_none());

    // The same entries are visible on the wire, in parse_line's shape.
    let frame = client.flight().expect("flight frame");
    assert!(is_ok(&frame), "flight failed: {frame}");
    let flight = frame.get("flight").expect("flight object");
    assert_eq!(flight.get("capacity").and_then(Json::as_u64), Some(256u64));
    let wire_entries = match flight.get("entries").expect("entries") {
        Json::Arr(items) => items,
        other => panic!("entries is not an array: {other}"),
    };
    assert_eq!(
        flight.get("recorded").and_then(Json::as_u64),
        Some(wire_entries.len() as u64),
        "nothing evicted yet: recorded == resident"
    );
    for entry in wire_entries {
        match parse_line(&entry.to_string()).expect("entry parses") {
            Record::Request(r) => assert!(r.trace_id > 0),
            other => panic!("flight entry is not a request record: {other:?}"),
        }
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn disabled_telemetry_keeps_the_registry_empty_but_evidence_flows() {
    let _guard = telemetry_lock();
    let fx = fixture();
    let handle = spawn(ServeConfig::new(&fx.repo_all)).expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let resp = client
        .send_timed(&classify_request("target", 0, None))
        .expect("classify");
    assert!(is_ok(&resp));

    // The observability surface that costs nothing stays on: trace ids,
    // stage timings, the flight ring, the `metrics` command itself.
    assert!(protocol::trace_id(&resp).is_some());
    assert!(protocol::timings(&resp).is_some());
    assert!(!handle.flight().is_empty());
    let frame = client.metrics().expect("metrics");
    let m = frame.get("metrics").expect("metrics object");
    assert_eq!(m.get("telemetry"), Some(&Json::Bool(false)));
    // Live server gauges are computed at exposition, not recorded.
    assert!(m
        .get("gauges")
        .and_then(|g| g.get("serve.queue_capacity"))
        .is_some());

    // But the registry itself recorded nothing: with telemetry off,
    // every entry point is one relaxed atomic load and an early return.
    let snap = sca_telemetry::snapshot();
    assert!(snap.spans.is_empty(), "spans recorded while disabled");
    assert!(snap.counters.is_empty(), "counters recorded while disabled");
    assert!(snap.gauges.is_empty(), "gauges recorded while disabled");
    assert!(
        snap.histograms.is_empty(),
        "histograms recorded while disabled"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn slow_requests_dump_summaries_and_span_trees_to_the_slow_log() {
    let _guard = telemetry_lock();
    let fx = fixture();
    let slow_log = fx.dir.join(format!("slow-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&slow_log);
    let mut cfg = ServeConfig::new(&fx.repo_all);
    cfg.metrics = true;
    cfg.slow_ms = Some(0); // every request is "slow": dump them all
    cfg.slow_log = Some(slow_log.clone());
    let handle = spawn(cfg).expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let resp = client
        .send(&classify_request("target", 0, None))
        .expect("classify");
    assert!(is_ok(&resp));
    let trace = protocol::trace_id(&resp).expect("trace id");

    handle.shutdown();
    handle.join();

    // The dump is valid JSONL in the telemetry export shape: the
    // request summary line plus the request's own span tree, all keyed
    // by the same trace id the client saw.
    let text = std::fs::read_to_string(&slow_log).expect("slow log exists");
    let mut requests = 0usize;
    let mut spans = 0usize;
    for line in text.lines() {
        match parse_line(line).expect("slow-log line parses") {
            Record::Request(r) => {
                requests += 1;
                if r.trace_id == trace {
                    assert_eq!(r.outcome, Outcome::Ok);
                    assert_eq!(r.name, "classify");
                }
            }
            Record::Span(s) => {
                spans += 1;
                assert!(
                    s.attr("trace").is_some(),
                    "slow-log span without a trace attr: {s:?}"
                );
            }
            other => panic!("unexpected slow-log record: {other:?}"),
        }
    }
    assert!(requests >= 1, "no request summary dumped");
    assert!(spans >= 1, "no span tree dumped");
    assert!(
        text.lines()
            .any(|l| l.contains(&format!("\"trace_id\":{trace}"))
                || l.contains(&format!("\"trace_id\": {trace}"))),
        "dump does not name the client's trace id"
    );
}

/// Regression: the per-request trace id is burned *before* the
/// frame-size limit check, so even the error frame answering an
/// oversized request carries one — there is no frame shape a client can
/// send that yields an unnameable response.
#[test]
fn oversize_frame_rejection_carries_a_trace_id() {
    let _guard = telemetry_lock();
    let fx = fixture();
    let mut cfg = ServeConfig::new(&fx.repo_all);
    cfg.max_frame_len = 256;
    let handle = spawn(cfg).expect("spawn server");

    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writeln!(writer, "{}", "x".repeat(4096)).expect("write");
    writer.flush().expect("flush");

    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let resp = Json::parse(line.trim_end()).expect("response is JSON");
    assert_eq!(error_kind(&resp), Some(protocol::KIND_BAD_REQUEST));
    assert!(
        resp.get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap()
            .contains("256-byte limit"),
        "unexpected message: {resp}"
    );
    protocol::trace_id(&resp)
        .unwrap_or_else(|| panic!("oversize rejection frame without a trace id: {resp}"));

    // The connection was closed after the rejection.
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("read eof"), 0);

    handle.shutdown();
    handle.join();
}

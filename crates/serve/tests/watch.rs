//! Wire-level tests for the online `watch` stream mode (DESIGN.md §17):
//! an enrolled attack alarms *before* its trace ends, benign programs
//! stay quiet to the end, streams land exactly one flight-recorder
//! entry without skewing the per-request latency histogram, and the
//! `serve.streams_active` gauge always returns to zero.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use sca_attacks::poc::{self, PocParams};
use sca_attacks::{AttackFamily, Sample};
use sca_serve::protocol::{
    error_kind, is_ok, parse_victim, Request, KIND_BAD_REQUEST, KIND_OVERLOADED,
};
use sca_serve::{spawn, Client, ClientConfig, ServeConfig, ServerHandle, WatchOptions};
use sca_telemetry::Json;
use scaguard::{
    build_model, detection_json, load_repository, save_repository, Detector, ModelRepository,
    ModelingConfig, ScanRequest,
};

/// A repository of all four PoC families, shared by every test in this
/// binary.
fn repo_path() -> &'static PathBuf {
    static REPO: OnceLock<PathBuf> = OnceLock::new();
    REPO.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("sca-watch-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tempdir");
        let params = PocParams::default();
        let pocs: Vec<(AttackFamily, Sample)> = AttackFamily::ALL
            .iter()
            .map(|&f| (f, poc::representative(f, &params)))
            .collect();
        let cfg = ModelingConfig::default();
        let mut repo = ModelRepository::new();
        for (family, sample) in &pocs {
            repo.add_poc(*family, &sample.program, &sample.victim, &cfg)
                .expect("model poc");
        }
        let path = dir.join("all.repo");
        save_repository(&repo, &path).expect("save repo");
        path
    })
}

fn patient() -> ClientConfig {
    ClientConfig {
        connect_timeout: Some(Duration::from_secs(2)),
        io_timeout: Some(Duration::from_secs(30)),
        ..ClientConfig::default()
    }
}

/// The ack's `stream` id.
fn stream_id(ack: &Json) -> u64 {
    assert!(is_ok(ack), "watch refused: {ack}");
    ack.get("stream").and_then(Json::as_u64).expect("stream id")
}

fn event_name(frame: &Json) -> &str {
    frame
        .get("event")
        .and_then(Json::as_str)
        .unwrap_or("<none>")
}

/// Drive `stream` until its `done` event (bounded), collecting every
/// event seen along the way.
fn run_to_done(
    client: &mut Client,
    stream: u64,
    increments_per_push: u64,
    max_pushes: usize,
) -> Vec<Json> {
    let mut all = Vec::new();
    for _ in 0..max_pushes {
        let events = client
            .watch_push(stream, increments_per_push)
            .expect("watch push");
        let done = events.iter().any(|e| event_name(e) == "done");
        all.extend(events);
        if done {
            return all;
        }
    }
    panic!("stream {stream} never reached done; last events: {all:?}");
}

/// The gauge must return to zero once streams end; the decrement
/// happens just after the final event is written, so poll briefly.
fn assert_streams_drain(handle: &ServerHandle) {
    let mut probe = Client::connect_with(handle.addr(), patient()).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = probe.stats().expect("stats");
        let active = stats
            .get("stats")
            .and_then(|s| s.get("streams_active"))
            .and_then(Json::as_u64)
            .expect("streams_active in stats");
        if active == 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "streams_active stuck at {active}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn enrolled_attack_alarms_before_its_trace_ends() {
    let handle = spawn(ServeConfig::new(repo_path())).expect("spawn server");
    let mut client = Client::connect_with(handle.addr(), patient()).expect("connect");

    let fr = poc::representative(AttackFamily::FlushReload, &PocParams::default());
    let ack = client
        .watch_open(
            "fr-watch",
            &fr.program.disasm(),
            "shared:3",
            &WatchOptions::default(),
        )
        .expect("open");
    let stream = stream_id(&ack);
    assert_eq!(event_name(&ack), "watching");
    assert!(ack.get("threshold").and_then(Json::as_f64).is_some());

    let events = run_to_done(&mut client, stream, 4, 200);
    let alarm_at = events
        .iter()
        .position(|e| event_name(e) == "alarm")
        .expect("an enrolled FR PoC must alarm");
    let done_at = events
        .iter()
        .position(|e| event_name(e) == "done")
        .expect("done event");
    assert!(
        alarm_at < done_at,
        "alarm must arrive before the trace ends"
    );
    let alarm = events[alarm_at].get("alarm").expect("alarm object");
    assert_eq!(
        alarm.get("family").and_then(Json::as_str),
        Some(AttackFamily::FlushReload.abbrev()),
        "wrong family: {alarm}"
    );
    let at_step = alarm
        .get("at_step")
        .and_then(Json::as_u64)
        .expect("at_step");
    let done = &events[done_at];
    let steps = done.get("steps").and_then(Json::as_u64).expect("steps");
    assert!(
        at_step < steps,
        "early alarm: fired at {at_step} of {steps} instructions"
    );
    assert_eq!(done.get("alarmed"), Some(&Json::Bool(true)));
    // The terminal detection is the classify detection of the whole
    // trace, byte for byte.
    let detection = done.get("detection").expect("detection in done");
    assert_eq!(detection.get("attack"), Some(&Json::Bool(true)));
    let detector = Detector::new(
        load_repository(repo_path()).expect("load repo"),
        Detector::DEFAULT_THRESHOLD,
    )
    .expect("threshold in range");
    let model = build_model(
        &fr.program,
        &parse_victim("shared:3").expect("victim"),
        &ModelingConfig::default(),
    )
    .expect("model");
    let offline = detection_json(
        "fr-watch",
        &detector
            .scan(&model.cst_bbs, &ScanRequest::default())
            .expect("no deadline"),
    );
    assert_eq!(detection.to_string(), offline.to_string());

    // After `done` the stream is gone: a further push gets a
    // structured routing error, not silence.
    let events = client.watch_push(stream, 1).expect("push after done");
    assert_eq!(events.len(), 1);
    assert_eq!(error_kind(&events[0]), Some(KIND_BAD_REQUEST));

    assert_streams_drain(&handle);
    handle.shutdown();
    handle.join();
}

#[test]
fn benign_stream_stays_quiet_and_never_skews_the_latency_histogram() {
    sca_telemetry::set_enabled(true);
    let mut cfg = ServeConfig::new(repo_path());
    cfg.metrics = true;
    let handle = spawn(cfg).expect("spawn server");
    let mut client = Client::connect_with(handle.addr(), patient()).expect("connect");

    let benign = sca_attacks::benign::generate_mix(1, 7)
        .pop()
        .expect("one benign program");
    let ack = client
        .watch_open(
            "benign-watch",
            &benign.program.disasm(),
            "none",
            &WatchOptions {
                increment: Some(256),
                ..WatchOptions::default()
            },
        )
        .expect("open");
    let stream = stream_id(&ack);
    let events = run_to_done(&mut client, stream, 8, 200);

    assert!(
        !events.iter().any(|e| event_name(e) == "alarm"),
        "benign stream alarmed: {events:?}"
    );
    let done = events.last().expect("events");
    assert_eq!(done.get("alarmed"), Some(&Json::Bool(false)));
    let detection = done.get("detection").expect("detection in done");
    assert_eq!(detection.get("attack"), Some(&Json::Bool(false)));
    let increments = done
        .get("increments")
        .and_then(Json::as_u64)
        .expect("increments");
    assert!(increments >= 2, "expected several increments");

    assert_streams_drain(&handle);

    // The stream's many increments must not skew `serve.latency_ns`:
    // it is the *work-request* histogram, and this binary's tests do
    // no classify/model work at all — so after a whole stream, its
    // count stays below the increments the stream committed (while the
    // stream counters prove the increments happened).
    let metrics = client.metrics().expect("metrics");
    let metrics = metrics.get("metrics").expect("metrics object");
    let latency_count = metrics
        .get("histograms")
        .and_then(|h| h.get("serve.latency_ns"))
        .and_then(|h| h.get("count"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(
        latency_count < increments,
        "stream increments leaked into serve.latency_ns (count {latency_count} \
         after a {increments}-increment stream)"
    );
    assert!(
        sca_telemetry::counter_value("serve.stream_increments") >= increments,
        "stream increments not visible in telemetry"
    );

    // Exactly one flight entry for the stream, carrying its counts.
    let watches: Vec<_> = handle
        .flight()
        .into_iter()
        .filter(|r| r.name == "watch" && r.trace_id == stream)
        .collect();
    assert_eq!(watches.len(), 1, "one flight entry per stream");
    let record = &watches[0];
    assert_eq!(record.verdict.as_deref(), Some("benign"));
    let stage = |name: &str| {
        record
            .stages
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    };
    assert_eq!(stage("increments"), Some(increments));
    assert_eq!(stage("alarms"), Some(0));

    handle.shutdown();
    handle.join();
}

#[test]
fn watch_input_errors_answer_inline_and_open_no_stream() {
    let handle = spawn(ServeConfig::new(repo_path())).expect("spawn server");
    let mut client = Client::connect_with(handle.addr(), patient()).expect("connect");

    // Bad victim spec, bad assembly, out-of-range threshold: all
    // synchronous bad_request answers, none opens a stream.
    for (program, victim, options) in [
        ("  halt\n", "sideways:3", WatchOptions::default()),
        ("  not an instruction\n", "none", WatchOptions::default()),
        (
            "  halt\n",
            "none",
            WatchOptions {
                threshold: Some(1.5),
                ..WatchOptions::default()
            },
        ),
    ] {
        let ack = client
            .watch_open("bad", program, victim, &options)
            .expect("answered");
        assert_eq!(error_kind(&ack), Some(KIND_BAD_REQUEST), "got {ack}");
    }

    // Pushing a stream that was never opened is a routing error on this
    // connection, not a hang or a crash.
    let events = client.watch_push(999, 1).expect("answered");
    assert_eq!(events.len(), 1);
    assert_eq!(error_kind(&events[0]), Some(KIND_BAD_REQUEST));

    assert_streams_drain(&handle);
    handle.shutdown();
    handle.join();
}

#[test]
fn finish_reports_the_current_prefix_and_closes_the_stream() {
    let handle = spawn(ServeConfig::new(repo_path())).expect("spawn server");
    let mut client = Client::connect_with(handle.addr(), patient()).expect("connect");

    let pp = poc::representative(AttackFamily::PrimeProbe, &PocParams::default());
    let ack = client
        .watch_open(
            "pp-watch",
            &pp.program.disasm(),
            "conflict:3",
            &WatchOptions {
                increment: Some(64),
                ..WatchOptions::default()
            },
        )
        .expect("open");
    let stream = stream_id(&ack);

    // A couple of increments, then an early finish: the done event
    // reports the prefix as it stands (not the whole trace).
    let events = client.watch_push(stream, 2).expect("push");
    assert!(events.iter().all(is_ok), "push failed: {events:?}");
    let events = client.watch_finish(stream).expect("finish");
    let done = events.last().expect("done event");
    assert_eq!(event_name(done), "done");
    assert_eq!(done.get("done"), Some(&Json::Bool(false)));
    assert_eq!(done.get("increments").and_then(Json::as_u64), Some(2));
    assert!(done.get("detection").is_some());

    // The stream is closed now.
    let events = client.watch_push(stream, 1).expect("answered");
    assert_eq!(error_kind(&events[0]), Some(KIND_BAD_REQUEST));

    assert_streams_drain(&handle);
    handle.shutdown();
    handle.join();
}

/// A loop of 4,000 iterations: a trace long enough that a push of one
/// instruction per increment can owe far more increments than run before
/// a torn connection is noticed.
const LONG_LOOP: &str = "        mov r0, 0
spin:   ld r1, [0x1000]
        add r0, 1
        cmp r0, 4000
        blt spin
        halt
";

#[test]
fn a_push_stops_soon_after_its_connection_is_torn() {
    const OWED: u64 = 100_000;
    let handle = spawn(ServeConfig::new(repo_path())).expect("spawn server");

    // A raw socket, so the teardown can be abrupt: open the stream, ask
    // for far more increments than the trace could ever run, read one
    // event, then sever the connection.
    let socket = TcpStream::connect(handle.addr()).expect("connect");
    socket
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = BufReader::new(socket.try_clone().expect("clone"));
    let mut writer = socket;
    let open = Request::Watch {
        name: "long-loop".into(),
        program: LONG_LOOP.into(),
        victim: "none".into(),
        increment: Some(1),
        threshold: None,
        sustain: None,
        deadline_ms: None,
    };
    writeln!(writer, "{}", open.to_json()).expect("write watch");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read ack");
    let stream = stream_id(&Json::parse(line.trim_end()).expect("ack is JSON"));
    let push = Request::WatchPush {
        stream,
        increments: OWED,
    };
    writeln!(writer, "{}", push.to_json()).expect("write push");
    line.clear();
    reader.read_line(&mut line).expect("first progress event");
    let first = Json::parse(line.trim_end()).expect("event is JSON");
    assert_eq!(
        event_name(&first),
        "progress",
        "stream never started: {first}"
    );
    writer.shutdown(Shutdown::Both).expect("tear down");
    drop(reader);
    drop(writer);

    // The push notices the closed connection at its next event and
    // stops; the stream ends with it.
    assert_streams_drain(&handle);
    let watches: Vec<_> = handle
        .flight()
        .into_iter()
        .filter(|r| r.name == "watch" && r.trace_id == stream)
        .collect();
    assert_eq!(watches.len(), 1, "one flight entry per stream");
    let increments = watches[0]
        .stages
        .iter()
        .find(|(n, _)| n == "increments")
        .map(|(_, v)| *v)
        .expect("increments stage");
    assert!(
        increments < OWED / 100,
        "the torn push kept computing: {increments} of {OWED} increments ran"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn a_push_refused_by_a_full_queue_is_overloaded_and_the_stream_survives() {
    let mut cfg = ServeConfig::new(repo_path());
    cfg.workers = 1;
    cfg.queue_depth = 1;
    let handle = spawn(cfg).expect("spawn server");
    let addr = handle.addr();
    let mut client = Client::connect_with(addr, patient()).expect("connect");
    let pp = poc::representative(AttackFamily::PrimeProbe, &PocParams::default());
    let ack = client
        .watch_open(
            "pp-watch",
            &pp.program.disasm(),
            "conflict:3",
            &WatchOptions::default(),
        )
        .expect("open");
    let stream = stream_id(&ack);

    // Two sleeping classifies: one holds the only worker, then the other
    // the only queue slot. The second is sent only once the worker has
    // taken the first, or the two could race for the one slot.
    let fr = poc::representative(AttackFamily::FlushReload, &PocParams::default())
        .program
        .disasm();
    let hold = |i: usize| {
        let fr = fr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect_with(addr, patient()).expect("connect holder");
            c.send(&Request::Classify {
                name: format!("holder-{i}"),
                program: fr,
                victim: "shared:3".into(),
                threshold: None,
                deadline_ms: None,
                debug_sleep_ms: 1_000,
                debug_panic: false,
            })
            .expect("holder reply")
        })
    };
    let mut probe = Client::connect_with(addr, patient()).expect("connect probe");
    let mut wait_for = |busy: u64, queued: u64| {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let stats = probe.stats().expect("stats");
            let stat = |k: &str| {
                stats
                    .get("stats")
                    .and_then(|s| s.get(k))
                    .and_then(Json::as_u64)
            };
            if stat("busy_workers") == Some(busy) && stat("queue_depth") == Some(queued) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "never reached {busy} busy, {queued} queued: {stats}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    let mut holders = vec![hold(0)];
    wait_for(1, 0);
    holders.push(hold(1));
    wait_for(1, 1);

    // The push is shed: a retryable error event that names the stream
    // and ends the push.
    let events = client.watch_push(stream, 1).expect("answered");
    assert_eq!(events.len(), 1, "{events:?}");
    assert_eq!(
        error_kind(&events[0]),
        Some(KIND_OVERLOADED),
        "{}",
        events[0]
    );
    assert_eq!(events[0].get("stream").and_then(Json::as_u64), Some(stream));
    assert_eq!(events[0].get("last"), Some(&Json::Bool(true)));
    for holder in holders {
        let reply = holder.join().expect("join holder");
        assert!(is_ok(&reply), "holder failed: {reply}");
    }

    // The stream stayed open: a later push runs.
    let events = client.watch_push(stream, 1).expect("push after the shed");
    assert!(
        events.iter().all(is_ok),
        "push after the shed failed: {events:?}"
    );
    assert!(events.iter().any(|e| event_name(e) == "progress"));
    let events = client.watch_finish(stream).expect("finish");
    assert_eq!(events.last().map(event_name), Some("done"));

    assert_streams_drain(&handle);
    handle.shutdown();
    handle.join();
}

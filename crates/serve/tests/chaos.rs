//! Fault-injection harness for the resident detection service.
//!
//! Every scenario drives a live server through a misbehaving network
//! (an in-process TCP proxy that delays, truncates, garbles, or drops
//! traffic) or a misbehaving request (oversized frames, a worker
//! panic), then proves three things: nothing hangs (every wait in the
//! harness is bounded by a client timeout), the server survives (a
//! clean ping answers after each scenario), and the clean path is
//! untouched (the detection rendered over the wire stays byte-identical
//! to the offline `classify --json` output).

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::thread;
use std::time::Duration;

use sca_attacks::poc::{self, PocParams};
use sca_attacks::{AttackFamily, Sample};
use sca_serve::protocol::{
    self, error_kind, is_ok, Request, KIND_BAD_REQUEST, KIND_INTERNAL_ERROR,
};
use sca_serve::{spawn, Client, ClientConfig, ServeConfig, ServerHandle};
use sca_telemetry::Json;
use scaguard::{
    detection_json, load_repository, save_repository, Detector, ModelBuilder, ModelRepository,
    ModelingConfig, ScanRequest,
};

/// Shared fixtures: a repository of all four PoC families on disk and a
/// target program's assembly source.
struct Fixture {
    repo: PathBuf,
    target_src: String,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("sca-chaos-test-{}", std::process::id()));
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
        let target_src = poc::flush_reload_iaik(&params).program.disasm();
        Fixture {
            repo: path,
            target_src,
        }
    })
}

fn classify_request(name: &str, sleep_ms: u64, panic: bool) -> Request {
    Request::Classify {
        name: name.into(),
        program: fixture().target_src.clone(),
        victim: "shared:3".into(),
        threshold: None,
        deadline_ms: None,
        debug_sleep_ms: sleep_ms,
        debug_panic: panic,
    }
}

/// A client policy with short timeouts: any scenario that would hang
/// fails in seconds with a timeout error instead.
fn impatient() -> ClientConfig {
    ClientConfig {
        connect_timeout: Some(Duration::from_secs(2)),
        io_timeout: Some(Duration::from_secs(5)),
        ..ClientConfig::default()
    }
}

/// Prove the server is still accepting, admitting, and answering.
fn assert_alive(handle: &ServerHandle) {
    let mut probe = Client::connect_with(handle.addr(), impatient()).expect("connect for probe");
    let pong = probe.ping().expect("ping after fault");
    assert!(is_ok(&pong), "ping after fault failed: {pong}");
}

// ---------------------------------------------------------------------------
// The fault proxy
// ---------------------------------------------------------------------------

/// How one proxied connection mangles client→server traffic. Responses
/// (server→client) are always pumped verbatim.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// Hold every client→server chunk for this long before forwarding —
    /// from the server's side, a stalled client.
    Delay(Duration),
    /// Forward only the first N bytes of the request, then close both
    /// sides — a frame cut off mid-line.
    Truncate(usize),
    /// XOR-flip the high bit of every forwarded byte except newlines —
    /// framing survives, the payload is binary garbage.
    Garble,
    /// Accept the client and hang up immediately without ever touching
    /// the server.
    Drop,
}

/// Accept exactly one connection, relay it to `upstream` through
/// `fault`, then exit. Every proxy socket carries its own timeout so a
/// broken scenario kills the proxy thread instead of wedging the test.
fn fault_proxy(upstream: SocketAddr, fault: Fault) -> (SocketAddr, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr");
    let pump = thread::spawn(move || {
        let (client, _) = listener.accept().expect("proxy accept");
        if matches!(fault, Fault::Drop) {
            let _ = client.shutdown(Shutdown::Both);
            return;
        }
        let bound = Some(Duration::from_secs(10));
        client.set_read_timeout(bound).expect("timeout");
        let server = TcpStream::connect(upstream).expect("proxy connect upstream");
        server.set_read_timeout(bound).expect("timeout");

        // Responses flow back untouched.
        let mut server_read = server.try_clone().expect("clone");
        let mut client_write = client.try_clone().expect("clone");
        let back = thread::spawn(move || {
            let _ = io::copy(&mut server_read, &mut client_write);
            let _ = client_write.shutdown(Shutdown::Write);
        });

        let mut client_read = client;
        let mut server_write = server;
        let mut forwarded = 0usize;
        let mut buf = [0u8; 4096];
        loop {
            let n = match client_read.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => n,
                Err(_) => break,
            };
            let chunk = &mut buf[..n];
            match fault {
                Fault::Delay(d) => thread::sleep(d),
                Fault::Truncate(limit) => {
                    if forwarded + n >= limit {
                        let keep = limit.saturating_sub(forwarded);
                        let _ = server_write.write_all(&chunk[..keep]);
                        break;
                    }
                }
                Fault::Garble => {
                    for b in chunk.iter_mut().filter(|b| **b != b'\n') {
                        *b ^= 0x80;
                    }
                }
                Fault::Drop => unreachable!("handled before the pump"),
            }
            if server_write.write_all(chunk).is_err() {
                break;
            }
            forwarded += n;
        }
        let _ = server_write.shutdown(Shutdown::Both);
        let _ = client_read.shutdown(Shutdown::Both);
        let _ = back.join();
    });
    (addr, pump)
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

#[test]
fn network_chaos_never_hangs_or_kills_the_server() {
    let fx = fixture();
    let mut cfg = ServeConfig::new(&fx.repo);
    // Short server-side socket timeout so the stalled-client scenario
    // resolves quickly.
    cfg.io_timeout_ms = Some(300);
    let handle = spawn(cfg).expect("spawn server");
    let upstream = handle.addr();

    // --- Garble: the payload is mangled, the framing survives. The
    // server answers the garbage with a structured bad_request and the
    // proxied connection stays usable.
    let (addr, pump) = fault_proxy(upstream, Fault::Garble);
    let mut garbled = Client::connect_with(addr, impatient()).expect("connect via proxy");
    let resp = garbled
        .send(&classify_request("garbled", 0, false))
        .expect("garbled frame still gets a response frame");
    assert_eq!(
        error_kind(&resp),
        Some(KIND_BAD_REQUEST),
        "garbled frame got {resp}"
    );
    drop(garbled);
    pump.join().expect("proxy thread");
    assert_alive(&handle);

    // --- Truncate: the frame is cut mid-line and the connection
    // closes. The server treats the partial line as one (malformed)
    // frame; the client sees a clean EOF or timeout, never a hang.
    let (addr, pump) = fault_proxy(upstream, Fault::Truncate(40));
    let mut truncated = Client::connect_with(addr, impatient()).expect("connect via proxy");
    let outcome = truncated.send(&classify_request("truncated", 0, false));
    if let Ok(resp) = &outcome {
        assert_eq!(
            error_kind(resp),
            Some(KIND_BAD_REQUEST),
            "truncated frame got {resp}"
        );
    }
    drop(truncated);
    pump.join().expect("proxy thread");
    assert_alive(&handle);

    // --- Delay: the client stalls mid-request longer than the server's
    // socket timeout. The server must disconnect it (and count it)
    // rather than pin the handler thread.
    let timeouts_before = handle.stats().timeouts;
    let (addr, pump) = fault_proxy(upstream, Fault::Delay(Duration::from_millis(900)));
    let mut stalled = Client::connect_with(addr, impatient()).expect("connect via proxy");
    let outcome = stalled.send(&classify_request("stalled", 0, false));
    assert!(
        outcome.is_err(),
        "server answered a request it should have timed out: {outcome:?}"
    );
    drop(stalled);
    pump.join().expect("proxy thread");
    assert!(
        handle.stats().timeouts > timeouts_before,
        "socket timeout was not counted"
    );
    assert_alive(&handle);

    // --- Drop: the connection dies before a byte reaches the server.
    let (addr, pump) = fault_proxy(upstream, Fault::Drop);
    let dropped = Client::connect_with(addr, impatient());
    if let Ok(mut c) = dropped {
        let _ = c.send(&classify_request("dropped", 0, false));
    }
    pump.join().expect("proxy thread");
    assert_alive(&handle);

    // --- After all of it, the clean path is untouched: the wire
    // detection is byte-identical to the offline JSON.
    let mut clean = Client::connect_with(upstream, impatient()).expect("connect");
    let resp = clean
        .send(&classify_request("target", 0, false))
        .expect("clean classify");
    assert!(is_ok(&resp), "clean request failed after chaos: {resp}");
    let wire = resp.get("detection").expect("detection").to_string();

    let repo = load_repository(&fx.repo).expect("load repo");
    let detector = Detector::new(repo, Detector::DEFAULT_THRESHOLD).expect("threshold in range");
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
    assert_eq!(wire, offline, "chaos perturbed the clean-path scores");

    handle.shutdown();
    handle.join();
}

#[test]
fn oversized_frames_are_refused_and_the_limit_is_named() {
    let fx = fixture();
    let mut cfg = ServeConfig::new(&fx.repo);
    cfg.max_frame_len = 4096;
    let handle = spawn(cfg).expect("spawn server");

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    // 4 KiB + 1 of 'x' with no newline: one byte over the cap.
    let huge = vec![b'x'; 4097];
    stream.write_all(&huge).expect("write oversized frame");
    stream.flush().expect("flush");

    let mut response = String::new();
    stream
        .try_clone()
        .expect("clone")
        .read_to_string(&mut response)
        .expect("read response until close");
    let frame = Json::parse(response.trim_end()).expect("structured response");
    assert_eq!(error_kind(&frame), Some(KIND_BAD_REQUEST));
    let message = frame
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .expect("error message");
    assert!(
        message.contains("4096"),
        "error does not name the limit: {message}"
    );
    // read_to_string returning proves the server closed the connection
    // rather than waiting for a newline that will never come.

    assert_alive(&handle);
    assert!(handle.stats().errors >= 1);
    handle.shutdown();
    handle.join();
}

#[test]
fn worker_panics_are_isolated_and_the_pool_keeps_full_strength() {
    let fx = fixture();
    sca_telemetry::set_enabled(true);
    let mut cfg = ServeConfig::new(&fx.repo);
    cfg.workers = 2;
    let handle = spawn(cfg).expect("spawn server");
    let addr = handle.addr();

    // A panicking request gets a structured internal_error on the same
    // connection — not a dropped connection, not a dead server.
    let mut client = Client::connect_with(addr, impatient()).expect("connect");
    let resp = client
        .send(&classify_request("boom", 0, true))
        .expect("panic answered with a frame");
    assert_eq!(error_kind(&resp), Some(KIND_INTERNAL_ERROR), "got {resp}");
    let message = resp
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .expect("error message");
    assert!(
        message.contains("panicked"),
        "message does not say what happened: {message}"
    );
    assert_eq!(handle.stats().panics, 1);
    assert!(
        sca_telemetry::counter_value("serve.panics") >= 1,
        "panic not visible in telemetry"
    );

    // The same connection still works.
    let resp = client
        .send(&classify_request("target", 0, false))
        .expect("classify after panic");
    assert!(is_ok(&resp), "connection broken after panic: {resp}");

    // Both workers must still be alive: two concurrent requests that
    // each sleep prove neither lane is a zombie. With a worker lost the
    // second request would serialize behind the first; with both lost
    // nothing would answer at all.
    let concurrent: Vec<_> = (0..2)
        .map(|i| {
            thread::spawn(move || {
                let mut c = Client::connect_with(addr, impatient()).expect("connect");
                c.send(&classify_request(&format!("alive-{i}"), 250, false))
                    .expect("reply")
            })
        })
        .collect();
    let started = std::time::Instant::now();
    for t in concurrent {
        let resp = t.join().expect("join");
        assert!(is_ok(&resp), "post-panic request failed: {resp}");
    }
    assert!(
        started.elapsed() < Duration::from_millis(2_000),
        "concurrent requests serialized: a worker died with the panic"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn shed_requests_retry_with_backoff_and_eventually_land() {
    let fx = fixture();
    sca_telemetry::set_enabled(true);
    let mut cfg = ServeConfig::new(&fx.repo);
    cfg.workers = 1;
    cfg.queue_depth = 1;
    let handle = spawn(cfg).expect("spawn server");
    let addr = handle.addr();

    // Fill the worker, then the single queue slot (staggered so the
    // two blockers don't race each other for admission).
    let blockers: Vec<_> = (0..2)
        .map(|i| {
            let t = thread::spawn(move || {
                let mut c = Client::connect_with(addr, impatient()).expect("connect");
                c.send(&classify_request(&format!("blocker-{i}"), 600, false))
                    .expect("blocker reply")
            });
            thread::sleep(Duration::from_millis(150));
            t
        })
        .collect();

    // Without retries the next request is shed immediately; with a
    // retry budget it backs off until capacity frees up and then lands.
    let retry_cfg = ClientConfig {
        retries: 10,
        backoff_base: Duration::from_millis(40),
        ..impatient()
    };
    let mut patient = Client::connect_with(addr, retry_cfg).expect("connect");
    let resp = patient
        .send_retry(&classify_request("persistent", 0, false))
        .expect("retried request");
    assert!(
        is_ok(&resp),
        "retries exhausted while capacity existed: {resp}"
    );

    for b in blockers {
        assert!(is_ok(&b.join().expect("join blocker")));
    }
    assert!(handle.stats().shed >= 1, "nothing was ever shed");
    assert!(
        sca_telemetry::counter_value("client.retries") >= 1,
        "retry not visible in telemetry"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn watch_stream_torn_mid_increment_fails_alone() {
    use std::io::BufRead;

    let fx = fixture();
    let mut cfg = ServeConfig::new(&fx.repo);
    cfg.workers = 2;
    let handle = spawn(cfg).expect("spawn server");
    let addr = handle.addr();

    // A healthy second stream on its own connection: the torn one must
    // not take it down.
    let mut survivor = Client::connect_with(addr, impatient()).expect("connect survivor");
    let survivor_ack = survivor
        .watch_open(
            "survivor",
            &fx.target_src,
            "shared:3",
            &sca_serve::WatchOptions::default(),
        )
        .expect("open survivor stream");
    assert!(is_ok(&survivor_ack), "survivor refused: {survivor_ack}");
    let survivor_id = survivor_ack
        .get("stream")
        .and_then(Json::as_u64)
        .expect("stream id");

    // Raw socket for the victim stream, so the teardown can be abrupt:
    // open a watch, push a large batch of increments, read just enough
    // to know the stream is mid-work, then sever the connection.
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = io::BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let open = Request::Watch {
        name: "torn".into(),
        program: fx.target_src.clone(),
        victim: "shared:3".into(),
        increment: Some(16),
        threshold: None,
        sustain: None,
        deadline_ms: None,
    };
    writeln!(writer, "{}", open.to_json()).expect("write watch");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read ack");
    let ack = Json::parse(line.trim_end()).expect("ack is JSON");
    assert!(is_ok(&ack), "watch refused: {ack}");
    let torn_id = ack.get("stream").and_then(Json::as_u64).expect("stream id");
    let push = Request::WatchPush {
        stream: torn_id,
        increments: 500,
    };
    writeln!(writer, "{}", push.to_json()).expect("write push");
    writer.flush().expect("flush");
    line.clear();
    reader.read_line(&mut line).expect("first progress event");
    assert!(
        is_ok(&Json::parse(line.trim_end()).expect("event is JSON")),
        "stream never started: {line}"
    );
    // Tear the connection down with hundreds of increments still owed.
    writer.shutdown(Shutdown::Both).expect("tear down");
    drop(reader);

    // The dead stream must wind down on its own (the gauge in `stats`
    // returns to zero) — no handler thread, worker, or shard pool is
    // left holding it.
    let mut probe = Client::connect_with(addr, impatient()).expect("connect probe");
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let stats = probe.stats().expect("stats");
        let active = stats
            .get("stats")
            .and_then(|s| s.get("streams_active"))
            .and_then(Json::as_u64)
            .expect("streams_active");
        if active <= 1 {
            // Only the survivor stream may remain.
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "torn stream never wound down (streams_active {active})"
        );
        thread::sleep(Duration::from_millis(50));
    }

    // The survivor stream still answers on its own connection.
    let events = survivor
        .watch_push(survivor_id, 1)
        .expect("survivor push after the tear");
    assert!(
        events.iter().all(is_ok),
        "survivor stream was hurt by the tear: {events:?}"
    );
    let _ = survivor.watch_finish(survivor_id);

    // Worker pool at full strength: two concurrent sleeping classifies
    // complete in parallel, so neither worker died with the stream.
    assert_alive(&handle);
    let concurrent: Vec<_> = (0..2)
        .map(|i| {
            thread::spawn(move || {
                let mut c = Client::connect_with(addr, impatient()).expect("connect");
                c.send(&classify_request(&format!("post-tear-{i}"), 250, false))
                    .expect("reply")
            })
        })
        .collect();
    let started = std::time::Instant::now();
    for t in concurrent {
        let resp = t.join().expect("join");
        assert!(is_ok(&resp), "post-tear request failed: {resp}");
    }
    assert!(
        started.elapsed() < Duration::from_millis(2_000),
        "concurrent requests serialized: a worker died with the torn stream"
    );

    // And the clean path is byte-identical to the offline pipeline.
    let mut clean = Client::connect_with(addr, impatient()).expect("connect");
    let resp = clean
        .send(&classify_request("target", 0, false))
        .expect("clean classify");
    assert!(is_ok(&resp), "clean request failed: {resp}");
    let wire = resp.get("detection").expect("detection").to_string();
    let repo = load_repository(&fx.repo).expect("load repo");
    let detector = Detector::new(repo, Detector::DEFAULT_THRESHOLD).expect("threshold in range");
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
    assert_eq!(wire, offline, "the torn stream perturbed the clean path");

    handle.shutdown();
    handle.join();
}

#[test]
fn truncated_frame_mid_pipeline_fails_only_its_own_request() {
    use std::io::BufRead;

    let fx = fixture();
    let handle = spawn(ServeConfig::new(&fx.repo)).expect("spawn server");

    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = io::BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    // Three pipelined frames on one connection: a slow request tagged
    // id 0, a frame cut off mid-line (the newline survives, the JSON
    // does not), and a fast request tagged id 2 — all in flight at once.
    let slow = sca_serve::with_request_id(
        classify_request("slow", 400, false).to_json(),
        &Json::Num(0.0),
    );
    let cut = classify_request("cut", 0, false).to_json().to_string();
    let fast = sca_serve::with_request_id(
        classify_request("fast", 0, false).to_json(),
        &Json::Num(2.0),
    );
    write!(writer, "{slow}\n{}\n{fast}\n", &cut[..cut.len() / 2]).expect("write");
    writer.flush().expect("flush");

    // Exactly three responses, each attributable: the cut frame gets an
    // untagged bad_request (it never parsed far enough to have an id),
    // the tagged requests complete normally with their ids intact.
    let mut ok_ids = Vec::new();
    let mut rejects = 0;
    let mut arrival = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        let resp = Json::parse(line.trim_end()).expect("response is JSON");
        if is_ok(&resp) {
            let id = sca_serve::request_id(&resp)
                .and_then(|id| id.as_u64())
                .expect("tagged response lost its id");
            let name = resp
                .get("detection")
                .and_then(|d| d.get("program"))
                .and_then(Json::as_str)
                .expect("detection.program");
            assert_eq!(
                name,
                if id == 0 { "slow" } else { "fast" },
                "id {id} routed to the wrong program"
            );
            ok_ids.push(id);
            arrival.push(format!("ok:{id}"));
        } else {
            assert_eq!(error_kind(&resp), Some(KIND_BAD_REQUEST), "got {resp}");
            assert!(
                sca_serve::request_id(&resp).is_none(),
                "the unparseable frame was answered with someone else's id: {resp}"
            );
            rejects += 1;
            arrival.push("bad_request".into());
        }
    }
    ok_ids.sort_unstable();
    assert_eq!(ok_ids, vec![0, 2], "an in-flight request was lost");
    assert_eq!(rejects, 1, "the cut frame was not rejected exactly once");
    // The slow request finishes last: the rejection and the fast
    // response overtook it, proving the failure never stalled the pipe.
    assert_eq!(arrival[2], "ok:0", "unexpected arrival order: {arrival:?}");

    // The connection is still usable after the mid-pipeline failure.
    let probe = sca_serve::with_request_id(
        classify_request("after", 0, false).to_json(),
        &Json::Num(7.0),
    );
    writeln!(writer, "{probe}").expect("write");
    writer.flush().expect("flush");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let resp = Json::parse(line.trim_end()).expect("response is JSON");
    assert!(
        is_ok(&resp),
        "connection broken after the cut frame: {resp}"
    );
    assert_eq!(
        sca_serve::request_id(&resp).and_then(|id| id.as_u64()),
        Some(7)
    );

    assert_alive(&handle);
    handle.shutdown();
    handle.join();
}

//! Idle-connection soak: the reason the connection layer went
//! event-driven. The old thread-per-connection server spent two threads
//! on every accepted socket; this suite holds ~1024 mostly-idle
//! connections on one live server and proves the new economics:
//!
//! - the process thread count stays O(workers + const) — parked
//!   connections are registry entries, not threads;
//! - classify traffic flowing *between* the idle herd stays
//!   byte-identical to the offline `detection_json` pipeline;
//! - parked connections survive past the io-timeout (they completed a
//!   frame and owe nothing — only *stalled* peers are killed) and still
//!   answer when woken;
//! - open watch streams cost no threads either: 256 of them, each pushed
//!   once, are registry entries, and all end when their connections
//!   close.
//!
//! Deliberately a single `#[test]`: the thread-count assertion reads
//! `/proc/self/status`, and a concurrently running test spawning its
//! own server would race it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use sca_attacks::poc::{self, PocParams};
use sca_attacks::{AttackFamily, Sample};
use sca_serve::protocol::{self, is_ok};
use sca_serve::{spawn, Client, ServeConfig, WatchOptions};
use sca_telemetry::Json;
use scaguard::{
    detection_json, load_repository, save_repository, Detector, ModelBuilder, ModelRepository,
    ModelingConfig, ScanRequest,
};

/// How many idle connections the soak parks.
const IDLE_CONNS: usize = 1024;
/// How many watch streams the soak holds open.
const OPEN_STREAMS: usize = 256;
/// The connections the streams are spread over.
const STREAM_CONNS: usize = 4;
/// Thread-count slack over the post-spawn baseline: the test harness's
/// own threads. The server starts no thread after `spawn` — it runs the
/// reactor plus two threads per worker, whatever connections, streams
/// or reloads it holds. The point is the order of magnitude — 1024
/// connections or 256 streams must not add a thread each.
const THREAD_SLACK: u64 = 16;

/// Current thread count of this process, from `/proc/self/status`.
fn process_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line in /proc/self/status")
}

fn build_fixture() -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("sca-soak-test-{}", std::process::id()));
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
    (path, target_src)
}

/// One parked peer: the raw socket plus its buffered read half.
struct IdleConn {
    reader: BufReader<TcpStream>,
}

impl IdleConn {
    fn connect(addr: std::net::SocketAddr) -> IdleConn {
        let stream = TcpStream::connect(addr).expect("connect idle conn");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set read timeout");
        IdleConn {
            reader: BufReader::new(stream),
        }
    }

    fn send_ping(&mut self) {
        self.reader
            .get_mut()
            .write_all(b"{\"cmd\":\"ping\"}\n")
            .expect("write ping");
    }

    fn read_pong(&mut self) {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read pong");
        let frame = Json::parse(&line).expect("parse pong");
        assert!(is_ok(&frame), "ping failed: {frame}");
        assert_eq!(frame.get("pong"), Some(&Json::Bool(true)));
    }
}

#[test]
fn a_thousand_parked_connections_cost_no_threads_and_survive_the_timeout() {
    let (repo_path, target_src) = build_fixture();
    let mut config = ServeConfig::new(&repo_path);
    config.workers = 2;
    // Short enough that the park-past-the-timeout phase fits in a test
    // run, long enough that the ping round-trips never race it.
    config.io_timeout_ms = Some(1200);
    let handle = spawn(config).expect("spawn server");
    let addr = handle.addr();
    let baseline = process_threads();

    // Park the herd. Every connection completes one ping first: a
    // connection that has spoken is parked (never timed out); one that
    // never completes a frame is a handshake stall and *is*. The ping
    // is written at connect time — before the next socket connects —
    // so no connection sits silent long enough to trip that stall
    // timeout while the rest of the herd is still arriving; the pongs
    // are all read afterwards (pipelined) to keep this phase fast.
    let mut herd: Vec<IdleConn> = (0..IDLE_CONNS)
        .map(|_| {
            let mut conn = IdleConn::connect(addr);
            conn.send_ping();
            conn
        })
        .collect();
    for conn in &mut herd {
        conn.read_pong();
    }

    let with_herd = process_threads();
    assert!(
        with_herd <= baseline + THREAD_SLACK,
        "{IDLE_CONNS} idle connections grew the thread count {baseline} -> {with_herd}; \
         parked connections must not cost threads"
    );

    // Classify traffic flows between the parked herd, and the wire
    // detection stays byte-identical to the offline pipeline.
    let mut client = Client::connect(addr).expect("connect work client");
    let resp = client
        .classify("target", &target_src, "shared:3")
        .expect("classify");
    assert!(is_ok(&resp), "classify failed: {resp}");
    let wire = resp.get("detection").expect("detection").to_string();
    let repo = load_repository(&repo_path).expect("load repo");
    let detector = Detector::new(repo, Detector::DEFAULT_THRESHOLD).expect("threshold");
    let builder = ModelBuilder::new(&ModelingConfig::default());
    let program = sca_isa::assemble("target", &target_src).expect("assemble");
    let victim = protocol::parse_victim("shared:3").expect("victim");
    let model = builder.build_cst(&program, &victim).expect("model");
    let offline = detection_json(
        "target",
        &detector
            .scan(&model, &ScanRequest::default())
            .expect("no deadline"),
    )
    .to_string();
    assert_eq!(wire, offline, "wire and offline detections diverge");

    // Park well past the io-timeout, then wake a sample of the herd:
    // every sampled connection must still be alive and answering, and
    // the timeout counter must not have moved — parked-idle is free.
    std::thread::sleep(Duration::from_millis(1800));
    for conn in herd.iter_mut().step_by(64) {
        conn.send_ping();
    }
    for conn in herd.iter_mut().step_by(64) {
        conn.read_pong();
    }
    let stats = handle.stats();
    assert_eq!(
        stats.timeouts, 0,
        "parked idle connections were killed by the io-timeout"
    );
    assert_eq!(stats.conns_active, (IDLE_CONNS + 1) as u64);

    // Hold a herd of open watch streams, each pushed once: an open
    // stream is a registry entry, and a push borrows a worker only while
    // its increments run.
    let mut watchers: Vec<Client> = (0..STREAM_CONNS)
        .map(|_| Client::connect(addr).expect("connect watcher"))
        .collect();
    for i in 0..OPEN_STREAMS {
        let watcher = &mut watchers[i % STREAM_CONNS];
        let ack = watcher
            .watch_open(
                &format!("watch-{i}"),
                &target_src,
                "shared:3",
                &WatchOptions::default(),
            )
            .expect("open stream");
        assert!(is_ok(&ack), "watch refused: {ack}");
        let stream = ack.get("stream").and_then(Json::as_u64).expect("stream id");
        let events = watcher.watch_push(stream, 1).expect("push");
        assert!(events.iter().all(is_ok), "push failed: {events:?}");
    }
    let with_streams = process_threads();
    assert!(
        with_streams <= baseline + THREAD_SLACK,
        "{OPEN_STREAMS} open streams grew the thread count {baseline} -> {with_streams}; \
         open streams must not cost threads"
    );
    assert_eq!(streams_active(&mut client), OPEN_STREAMS as u64);

    // Closing the connections ends their streams.
    drop(watchers);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let active = streams_active(&mut client);
        if active == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "streams_active stuck at {active} after the watchers closed"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    drop(herd);
    handle.shutdown();
    handle.join();
}

/// The `streams_active` figure of a `stats` answer.
fn streams_active(client: &mut Client) -> u64 {
    let stats = client.stats().expect("stats");
    stats
        .get("stats")
        .and_then(|s| s.get("streams_active"))
        .and_then(Json::as_u64)
        .expect("streams_active in stats")
}

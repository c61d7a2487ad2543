//! The resident detection server.
//!
//! One process owns the expensive state — a warm [`ModelBuilder`] whose
//! content-addressed cache persists across requests, and a [`Detector`]
//! whose similarity engine keeps the repository's models interned — and
//! serves classification over TCP. The offline CLI pays the full
//! pipeline (repository load, model build, engine preparation) on every
//! invocation; the server pays it once.
//!
//! Architecture:
//!
//! ```text
//! reactor (one thread: nonblocking accept + reads + writes, timed sweeps)
//!    │  control frames (ping/stats/metrics/flight/shutdown): inline
//!    │  watch (open a stream): inline, into the connection's registry
//!    │  work, watch-push/-finish, reload-repo: one admission queue
//!    ▼
//! BoundedQueue ──> worker pool ────────┬──> replies, stream events ──> conn outbox ──> reactor
//!                     │ scan task      │ detection
//!                     ▼                │
//!          scan queue ──> scan pool (per-generation detector clones)
//! ```
//!
//! A server runs the reactor plus two threads per configured worker (the
//! worker and its scan thread), however many connections, streams or
//! reloads are open.
//!
//! - **Event-driven connections**: there is no thread per connection.
//!   One reactor thread owns the nonblocking listener and every
//!   accepted socket, sweeping them on a short timer (plus a condvar
//!   wake whenever a producer enqueues output): each sweep accepts
//!   pending peers, drains each connection's [`Outbox`] into its
//!   socket, feeds whatever bytes are readable into a per-connection
//!   [`FrameAssembler`], and dispatches the complete frames. An idle
//!   connection is just a registry entry — a socket, an empty
//!   assembler, an empty outbox — so thousands of parked watchers cost
//!   file descriptors, not threads or stacks.
//! - **Write-path ownership**: the reactor is the only thing that ever
//!   writes a socket. Workers push whole rendered frames — replies and
//!   stream events alike — into the connection's outbox (one lock, one
//!   append), which is what keeps out-of-order completions from
//!   interleaving bytes mid-frame — the invariant the old per-
//!   connection writer thread provided, now without the thread.
//! - **Ordering without blocking**: untagged requests keep one-in-one-
//!   out ordering by *pausing* the connection — the reactor stops
//!   reading and parsing it until the worker has pushed the reply —
//!   so backpressure is TCP's, not an unbounded buffer's. Requests
//!   tagged with an envelope `id` are pipelined exactly as before:
//!   admitted without pausing, answered out of order. Watch pushes and
//!   finishes, tagged or not, and reloads always pause: the pause is
//!   what keeps a stream's events in order.
//! - **Watch streams** (DESIGN.md §17): an open stream is an entry in
//!   its connection's registry — the session and its counters behind a
//!   mutex — and holds no thread. A push or finish is a queued job: a
//!   worker runs its increments, pushing each event as it happens, and
//!   stops early once the connection is gone.
//! - **Timeout split**: the per-connection io-timeout now distinguishes
//!   a *stalled* peer from a *parked* one. A connection mid-frame (or
//!   one that has never completed a frame, or one whose outbox cannot
//!   make write progress) is killed after [`ServeConfig::io_timeout_ms`]
//!   and counted in `timeouts`; a connection that has spoken and gone
//!   quiet — the resident-watcher steady state — parks indefinitely at
//!   zero cost.
//! - **Connection cap**: beyond [`ServeConfig::max_connections`] a new
//!   peer gets one structured `overloaded` frame and a clean close
//!   (`conns_rejected`) — the admission queue's shedding discipline,
//!   one layer down. Accept errors (fd exhaustion) back off
//!   exponentially instead of hot-looping, counted in `accept_errors`.
//! - **Admission control**: the queue is bounded; when it is full the
//!   reactor sheds the request with an explicit `overloaded` error
//!   instead of queueing unboundedly or stalling the connection.
//! - **Scan pool**: a worker hands each model to the scan pool and waits
//!   for its [`Detection`]. Every scan thread holds a *private clone* of
//!   the repository's [`Detector`] (re-cloned only when the repository
//!   generation moves), so concurrent scans never serialize on one
//!   detector's scan-state mutex. A full or closed pool scans inline on
//!   the worker instead. Scanning on the worker itself was measured and
//!   made `interactive` latency worse: a worker that answers sooner
//!   leaves more requests waiting for the reactor's timed sweep.
//! - **Deadline propagation**: a request deadline (per-request
//!   `deadline_ms` or the server default) is fixed at admission and
//!   propagated into the engine's bounded-DTW hook, so an expired
//!   request aborts mid-scan. The deadline only ever aborts — a
//!   detection that comes back is bitwise identical to the offline one.
//! - **Hot reload**: `reload-repo` is a queued job that builds the new
//!   [`Detector`] on a worker, off to the side, and swaps it in
//!   atomically (an `Arc` swap under a brief mutex). Work snapshots the
//!   `Arc` at admission and a stream at its open, so every response is
//!   computed against exactly one repository generation and in-flight
//!   work is never drained or mixed.
//! - **Observability**: every frame gets a server-unique trace id
//!   (returned in the response envelope); workers bind it to the thread
//!   with [`sca_telemetry::trace_scope`] so detector/engine spans carry
//!   it, then drain those spans per request — the registry stays bounded
//!   no matter how long the server lives. Stage timings are measured
//!   directly with `Instant` (so the `timings` breakdown works and sums
//!   to the total with the registry off), every request lands in a
//!   fixed-size [`FlightRecorder`] ring, and requests slower than
//!   [`ServeConfig::slow_ms`] dump their summary plus full span tree as
//!   JSONL to [`ServeConfig::slow_log`]. When telemetry is disabled the
//!   extra per-request cost is a handful of `Instant::now` calls and one
//!   uncontended mutex push — the registry entry points stay one relaxed
//!   atomic load.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use sca_telemetry::{
    request_json, span_json, AttrValue, FlightRecorder, Histogram, Json, Outcome, RequestSummary,
    SpanRecord,
};
use scaguard::persist::LoadRepoError;
use scaguard::{
    detection_json, index_sidecar_path, load_index, load_repository, model_text, Alarm, CstBbs,
    DeadlineExceeded, Detection, Detector, InvalidThreshold, ModelBuilder, ModelRepository,
    ModelingConfig, ScanRequest, StreamConfig, StreamSession, StreamUpdate,
};

use crate::protocol::{
    self, error_frame, ok_frame, parse_victim, request_id, request_wants_timings, with_request_id,
    with_trace_id, ErrorKind, FrameAssembler, FrameTooLong, Request, KIND_BAD_REQUEST,
    KIND_DEADLINE_EXCEEDED, KIND_INTERNAL_ERROR, KIND_MODEL_ERROR, KIND_OVERLOADED,
    KIND_RELOAD_FAILED, KIND_SHUTTING_DOWN, PROTOCOL_VERSION,
};
use crate::queue::{BoundedQueue, Outbox};

/// Server configuration; see the field docs for defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:0` by default: loopback, ephemeral
    /// port — read the bound address from [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker-pool size (default 4); the scan pool has as many threads.
    pub workers: usize,
    /// Admission-queue capacity (default 64); requests beyond it are
    /// shed with an `overloaded` response.
    pub queue_depth: usize,
    /// Default per-request deadline; `None` (the default) means no
    /// deadline unless the request carries its own `deadline_ms`.
    pub deadline_ms: Option<u64>,
    /// Detection threshold (default [`Detector::DEFAULT_THRESHOLD`]).
    pub threshold: f64,
    /// The repository file to load (and to re-read on `reload-repo`
    /// without an explicit path).
    pub repo_path: PathBuf,
    /// Per-connection stall timeout (default 30s). A peer that stalls
    /// mid-frame, never completes a first frame, or stops draining its
    /// responses is disconnected and counted in `timeouts`. A
    /// connection that has completed at least one frame and gone fully
    /// quiet is *parked* instead — under the reactor an idle connection
    /// costs a registry entry, not a thread, so it may sit past this
    /// timeout indefinitely. `None` disables the stall timeout too.
    pub io_timeout_ms: Option<u64>,
    /// Hard cap on concurrently open connections (default `None`:
    /// unbounded). At the cap a new peer is answered with one
    /// structured `overloaded` frame and cleanly closed (counted in
    /// `conns_rejected`) — the admission queue's shedding discipline
    /// applied one layer down, before the peer can occupy a registry
    /// slot.
    pub max_connections: Option<usize>,
    /// Hard cap on one request frame's length in bytes (default
    /// [`protocol::MAX_FRAME_LEN`]). An oversized frame is answered
    /// with a `bad_request` naming the limit and the connection is
    /// closed — the stream cannot be resynchronized mid-frame.
    pub max_frame_len: usize,
    /// Enable the telemetry registry at startup (default false), so the
    /// `metrics` command has counters/gauges/histograms to report and
    /// spans carry trace ids. Off, every registry entry point stays one
    /// relaxed atomic load.
    pub metrics: bool,
    /// Flight-recorder capacity in requests (default 256). The recorder
    /// itself is always on — it is server-owned and bounded, not gated
    /// by the telemetry flag.
    pub flight_capacity: usize,
    /// Slow-request threshold in milliseconds. A work request slower
    /// than this dumps its summary (plus its span tree, when telemetry
    /// is on) to [`ServeConfig::slow_log`]. `None` (the default)
    /// disables the dump; `Some(0)` dumps every request.
    pub slow_ms: Option<u64>,
    /// JSONL file receiving slow-request dumps (appended, created on
    /// demand). `None` (the default) logs nowhere even if `slow_ms` is
    /// set.
    pub slow_log: Option<PathBuf>,
}

impl ServeConfig {
    /// A default configuration serving `repo_path`.
    pub fn new(repo_path: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 64,
            deadline_ms: None,
            threshold: Detector::DEFAULT_THRESHOLD,
            repo_path: repo_path.into(),
            io_timeout_ms: Some(30_000),
            max_connections: None,
            max_frame_len: protocol::MAX_FRAME_LEN,
            metrics: false,
            flight_capacity: 256,
            slow_ms: None,
            slow_log: None,
        }
    }
}

/// Failure to start the server.
#[derive(Debug)]
pub enum ServeError {
    /// Socket setup failed.
    Io(io::Error),
    /// The repository file could not be loaded.
    Repo(LoadRepoError),
    /// The configured detection threshold is outside `[0, 1]`.
    Threshold(InvalidThreshold),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "cannot start server: {e}"),
            ServeError::Repo(e) => write!(f, "cannot load repository: {e}"),
            ServeError::Threshold(e) => write!(f, "cannot start server: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Repo(e) => Some(e),
            ServeError::Threshold(e) => Some(e),
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

impl From<LoadRepoError> for ServeError {
    fn from(e: LoadRepoError) -> ServeError {
        ServeError::Repo(e)
    }
}

impl From<InvalidThreshold> for ServeError {
    fn from(e: InvalidThreshold) -> ServeError {
        ServeError::Threshold(e)
    }
}

/// One loaded repository: the detector plus its provenance. Immutable
/// once published; `reload-repo` publishes a *new* `RepoState` and
/// in-flight work keeps its admission-time snapshot. The detector is
/// shared with the watch streams opened on this generation.
struct RepoState {
    generation: u64,
    path: PathBuf,
    detector: Arc<Detector>,
}

impl RepoState {
    fn json(&self) -> Json {
        Json::Obj(vec![
            ("generation".into(), Json::Num(self.generation as f64)),
            (
                "entries".into(),
                Json::Num(self.detector.repository().len() as f64),
            ),
            ("path".into(), Json::Str(self.path.display().to_string())),
        ])
    }
}

/// Monotonic server counters (lock-free; read by `stats`).
#[derive(Debug, Default)]
struct Counters {
    received: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    errors: AtomicU64,
    reloads: AtomicU64,
    panics: AtomicU64,
    timeouts: AtomicU64,
    accept_errors: AtomicU64,
    conns_rejected: AtomicU64,
}

/// A point-in-time copy of the server counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Work requests admitted or shed (classify + model).
    pub received: u64,
    /// Work requests answered with a detection or model.
    pub completed: u64,
    /// Requests shed because the admission queue was full: work
    /// requests, watch pushes and finishes, and reloads.
    pub shed: u64,
    /// Work requests that ran out of deadline (before or during the scan).
    pub deadline_exceeded: u64,
    /// Work requests answered with `bad_request` / `model_error`.
    pub errors: u64,
    /// Successful `reload-repo` commands.
    pub reloads: u64,
    /// Worker panics caught and answered with `internal_error` (the
    /// pool stays at full strength; this counter is how you notice).
    pub panics: u64,
    /// Connections dropped by the stall timeout: a peer stuck mid-frame,
    /// never completing a first frame, or not draining its responses.
    /// Parked-idle connections are deliberately not counted (or killed).
    pub timeouts: u64,
    /// `accept` failures (fd exhaustion and kin); each also arms the
    /// accept backoff so the reactor never hot-loops on a failing
    /// listener.
    pub accept_errors: u64,
    /// Connections refused at the [`ServeConfig::max_connections`] cap
    /// with a structured `overloaded` frame and a clean close.
    pub conns_rejected: u64,
    /// Gauge: work requests admitted but not yet answered (queued or on
    /// a worker).
    pub in_flight: u64,
    /// Gauge: workers currently executing a job.
    pub busy_workers: u64,
    /// Gauge: connections currently registered with the reactor.
    pub conns_active: u64,
}

/// The reactor's doorbell. The reactor sleeps between sweeps on this
/// condvar; any producer with fresh output (a worker's reply or stream
/// event, shutdown) rings it so flushing never waits for the next timed
/// sweep. Socket *input* is not signalled — inbound
/// bytes are picked up by the timed sweep itself, which bounds the cost
/// of thousands of idle connections to one nonblocking read each per
/// sweep.
#[derive(Default)]
struct ReactorWake {
    rung: Mutex<bool>,
    bell: Condvar,
}

impl ReactorWake {
    fn notify(&self) {
        let mut rung = self.rung.lock().unwrap_or_else(|e| e.into_inner());
        *rung = true;
        self.bell.notify_one();
    }

    /// Sleep until rung, at most `timeout`; consumes the ring.
    fn wait(&self, timeout: Duration) {
        let mut rung = self.rung.lock().unwrap_or_else(|e| e.into_inner());
        if !*rung {
            let (guard, _) = self
                .bell
                .wait_timeout(rung, timeout)
                .unwrap_or_else(|e| e.into_inner());
            rung = guard;
        }
        *rung = false;
    }
}

/// The slice of one connection's state shared outside the reactor.
/// Workers hold an `Arc` to it while they serve one of the connection's
/// jobs, and push rendered reply frames and stream events into the
/// outbox; the reactor — sole owner of the socket — drains it. The
/// reactor also uses the `Arc`'s strong count as the liveness signal for
/// a half-closed connection: once it holds the only reference and the
/// outbox is dry, no late reply can ever arrive and the socket can
/// close.
struct ConnShared {
    outbox: Outbox,
    /// True while an ordered (untagged) request, a watch push or finish,
    /// or a reload is in flight: the reactor neither reads the socket nor
    /// parses buffered frames until the worker pushes the reply and lifts
    /// the pause — the blocking path's one-in-one-out ordering, with TCP
    /// backpressure instead of a blocked reader thread.
    paused: AtomicBool,
    /// The connection's open watch streams, keyed by stream id (the
    /// `watch` frame's trace id). A stream id is only routable on the
    /// connection that opened it. The reactor inserts at open and clears
    /// the registry when the connection goes; a worker removes a stream
    /// that ended before it lifts the pause.
    streams: Mutex<HashMap<u64, Arc<WatchStream>>>,
    wake: Arc<ReactorWake>,
}

impl ConnShared {
    fn new(wake: Arc<ReactorWake>) -> ConnShared {
        ConnShared {
            outbox: Outbox::new(),
            paused: AtomicBool::new(false),
            streams: Mutex::new(HashMap::new()),
            wake,
        }
    }

    /// Render `frame` and enqueue it for the reactor to write. Returns
    /// whether the outbox took it: a closed outbox (dead connection)
    /// makes this a no-op — a worker finishing after its peer hung up
    /// answers nowhere, exactly like the old dropped writer channel.
    fn push(&self, frame: Json) -> bool {
        let mut line = frame.to_string();
        line.push('\n');
        let accepted = self.outbox.push(line.as_bytes());
        if accepted {
            self.wake.notify();
        }
        accepted
    }

    /// Lift the pause. Whatever answers the paused frame must already be
    /// in the outbox: the reactor may parse (and answer) the connection's
    /// next frame as soon as this returns.
    fn unpause(&self) {
        self.paused.store(false, Ordering::Release);
        self.wake.notify();
    }

    fn streams(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<WatchStream>>> {
        // A map of `Arc`s: nothing a panicked holder could leave torn.
        self.streams.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// `frame` stamped with its trace id and, for a tagged request, the
/// echoed envelope `id`.
fn decorate(frame: Json, trace: u64, id: Option<&Json>) -> Json {
    let frame = with_trace_id(frame, trace);
    match id {
        Some(id) => with_request_id(frame, id),
        None => frame,
    }
}

/// Where a job's answers go: into the connection's outbox, drained by
/// the reactor, stamped with the frame's trace id and, for a tagged
/// request, its echoed envelope `id`. Tagged work is pipelined: its
/// reply may overtake other in-flight work. Every other job is ordered:
/// the reactor paused the connection at admission, and the worker lifts
/// the pause once the job's last frame is in the outbox.
struct Reply {
    conn: Arc<ConnShared>,
    /// Server-unique id assigned to the frame at read time.
    trace: u64,
    id: Option<Json>,
}

impl Reply {
    /// Push `frame`, stamped; returns whether the outbox took it.
    fn send(&self, frame: Json) -> bool {
        self.conn
            .push(decorate(frame, self.trace, self.id.as_ref()))
    }
}

/// One admitted work request (classify, classify-batch, model). The
/// `repo` snapshot is taken at admission: whatever generation was live
/// when the request was accepted is the generation that answers it,
/// regardless of concurrent reloads.
struct Job {
    request: Request,
    repo: Arc<RepoState>,
    deadline: Option<Instant>,
    enqueued: Instant,
    reply: Reply,
    /// Whether the response should carry the stage-timing breakdown.
    wants_timings: bool,
}

/// What the admission queue carries to the worker pool.
enum Task {
    /// A work request; the only kind the request accounting sees.
    Work(Job),
    /// A `watch-push` (`increments` is `Some`) or `watch-finish`
    /// (`None`) on an open stream.
    Stream {
        stream: Arc<WatchStream>,
        increments: Option<u64>,
        reply: Reply,
    },
    /// A `reload-repo`, from `path` or the current repository's file.
    Reload { path: Option<String>, reply: Reply },
}

fn request_kind(request: &Request) -> &'static str {
    match request {
        Request::Classify { .. } => "classify",
        Request::ClassifyBatch { .. } => "classify-batch",
        Request::Model { .. } => "model",
        Request::ReloadRepo { .. } => "reload-repo",
        Request::Watch { .. } => "watch",
        Request::WatchPush { .. } => "watch-push",
        Request::WatchFinish { .. } => "watch-finish",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Flight => "flight",
        Request::Ping => "ping",
        Request::Shutdown => "shutdown",
    }
}

/// One scan for the scan pool: `target` against `repo`'s detector.
struct ScanTask {
    repo: Arc<RepoState>,
    target: Arc<CstBbs>,
    deadline: Option<Instant>,
    /// The requesting frame's trace id: the scan binds it so the engine
    /// spans it emits land in (and are drained from) the right trace
    /// instead of leaking into the resident registry.
    trace_id: u64,
    reply: mpsc::Sender<Result<Detection, DeadlineExceeded>>,
}

/// State shared by the acceptor, handlers, and workers.
struct Shared {
    config: ServeConfig,
    builder: ModelBuilder,
    repo: Mutex<Arc<RepoState>>,
    queue: BoundedQueue<Task>,
    counters: Counters,
    shutdown: AtomicBool,
    addr: SocketAddr,
    /// Next trace id; every frame read off a connection consumes one.
    next_trace: AtomicU64,
    /// Work requests admitted but not yet answered.
    in_flight: AtomicU64,
    /// Workers currently executing a job.
    busy_workers: AtomicU64,
    /// Open watch streams across all connections.
    streams_active: AtomicU64,
    /// Connections currently registered with the reactor.
    conns_active: AtomicU64,
    /// Set by [`ServerHandle::join`] once the workers are gone: the
    /// reactor makes one final bounded flush pass and exits.
    reactor_stop: AtomicBool,
    /// The reactor's doorbell (see [`ReactorWake`]).
    wake: Arc<ReactorWake>,
    /// Always-on ring of per-request summaries.
    flight: FlightRecorder,
    /// Open slow-request log, when configured.
    slow_log: Option<Mutex<File>>,
    /// The scan pool's queue. Its threads each hold a private,
    /// generation-cached clone of the detector, so steady-state scans
    /// touch no shared locks at all.
    scans: BoundedQueue<ScanTask>,
}

impl Shared {
    fn repo_snapshot(&self) -> Arc<RepoState> {
        Arc::clone(&self.repo.lock().unwrap_or_else(|e| e.into_inner()))
    }

    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            received: self.counters.received.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            deadline_exceeded: self.counters.deadline_exceeded.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            reloads: self.counters.reloads.load(Ordering::Relaxed),
            panics: self.counters.panics.load(Ordering::Relaxed),
            timeouts: self.counters.timeouts.load(Ordering::Relaxed),
            accept_errors: self.counters.accept_errors.load(Ordering::Relaxed),
            conns_rejected: self.counters.conns_rejected.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            busy_workers: self.busy_workers.load(Ordering::Relaxed),
            conns_active: self.conns_active.load(Ordering::Relaxed),
        }
    }

    /// Append a slow request's summary and span tree to the slow log.
    /// Best-effort: a full disk must never take the serving path down.
    fn write_slow_dump(&self, summary: &RequestSummary, spans: &[SpanRecord]) {
        let Some(file) = &self.slow_log else { return };
        let mut out = request_json(summary).to_string();
        out.push('\n');
        for s in spans {
            out.push_str(&span_json(s).to_string());
            out.push('\n');
        }
        let mut f = file.lock().unwrap_or_else(|e| e.into_inner());
        let _ = f.write_all(out.as_bytes());
        let _ = f.flush();
    }

    /// Begin shutdown: refuse new work and let queued work drain. The
    /// reactor never blocks in `accept`, so it only needs its doorbell
    /// rung to observe the flag and drop the listener.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        self.wake.notify();
    }
}

/// A running server: its bound address plus the thread handles.
pub struct ServerHandle {
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    scanners: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A snapshot of the server counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats()
    }

    /// A copy of the flight recorder's resident entries, oldest first.
    pub fn flight(&self) -> Vec<RequestSummary> {
        self.shared.flight.snapshot()
    }

    /// Ask the server to stop: no new work is admitted, queued work
    /// drains, then the pool exits. Follow with [`ServerHandle::join`].
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Wait for every worker, scan thread, and the reactor to exit.
    pub fn join(mut self) {
        // The reactor keeps sweeping while the workers drain so their
        // final replies still reach clients; it is stopped last.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Only once the workers are gone can no new scan be queued; now
        // the scan pool can drain out and exit.
        self.shared.scans.close();
        for t in self.scanners.drain(..) {
            let _ = t.join();
        }
        // Every reply is now in its outbox: one final bounded flush
        // pass, then the reactor exits.
        self.shared.reactor_stop.store(true, Ordering::SeqCst);
        self.shared.wake.notify();
        if let Some(r) = self.reactor.take() {
            let _ = r.join();
        }
    }
}

/// Start a server for `config`: load the repository, bind the listener,
/// spawn the worker pool and the acceptor. Returns as soon as the
/// server is ready to accept connections.
///
/// # Errors
///
/// [`ServeError::Repo`] when the repository file cannot be loaded
/// (the error names the file, line, and reason); [`ServeError::Io`]
/// when the listen address cannot be bound.
/// Attach the repository's sidecar index (`<repo>.idx`) to a detector,
/// rebuilding in memory when the sidecar is missing, corrupt, or stale.
/// The index only prunes — detections are byte-identical with or
/// without it — so a bad sidecar warns on stderr and is never fatal.
/// Runs at startup and on every `reload-repo`, so a hot-reloaded
/// generation keeps its index.
fn attach_index(detector: &mut Detector, repo_path: &Path) {
    let sidecar = index_sidecar_path(repo_path);
    match load_index(&sidecar) {
        Ok(index) => {
            if detector.set_index(index).is_ok() {
                return;
            }
            eprintln!(
                "sca-serve: index {} is stale for {}; rebuilding in memory",
                sidecar.display(),
                repo_path.display()
            );
        }
        Err(e) => eprintln!("sca-serve: index {e}; rebuilding in memory"),
    }
    let index = detector.build_index();
    detector
        .set_index(index)
        .expect("a freshly built index matches its repository");
}

/// Build the detector for a freshly loaded repository, with its
/// sidecar index (`<repo>.idx`) attached.
fn build_detector(
    repo: ModelRepository,
    repo_path: &Path,
    threshold: f64,
) -> Result<Detector, InvalidThreshold> {
    let mut detector = Detector::new(repo, threshold)?;
    attach_index(&mut detector, repo_path);
    Ok(detector)
}

pub fn spawn(config: ServeConfig) -> Result<ServerHandle, ServeError> {
    if config.metrics {
        sca_telemetry::set_enabled(true);
    }
    let slow_log = match &config.slow_log {
        Some(path) => Some(Mutex::new(
            OpenOptions::new().create(true).append(true).open(path)?,
        )),
        None => None,
    };
    let repo = load_repository(&config.repo_path)?;
    let detector = build_detector(repo, Path::new(&config.repo_path), config.threshold)?;
    let listener = TcpListener::bind(&config.addr)?;
    // The reactor owns every socket and must never block in a syscall:
    // accepts, reads, and writes all go nonblocking and are revisited
    // on the next sweep.
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let workers = config.workers.max(1);
    let shared = Arc::new(Shared {
        builder: ModelBuilder::new(&ModelingConfig::default()),
        repo: Mutex::new(Arc::new(RepoState {
            generation: 1,
            path: config.repo_path.clone(),
            detector: Arc::new(detector),
        })),
        queue: BoundedQueue::new(config.queue_depth),
        counters: Counters::default(),
        shutdown: AtomicBool::new(false),
        addr,
        next_trace: AtomicU64::new(1),
        in_flight: AtomicU64::new(0),
        busy_workers: AtomicU64::new(0),
        streams_active: AtomicU64::new(0),
        conns_active: AtomicU64::new(0),
        reactor_stop: AtomicBool::new(false),
        wake: Arc::new(ReactorWake::default()),
        flight: FlightRecorder::new(config.flight_capacity),
        slow_log,
        // Every worker has at most one scan outstanding at a time, so
        // `workers` never sheds; the slack absorbs the inline-fallback
        // race.
        scans: BoundedQueue::new(workers * 2),
        config,
    });

    // A startup spawn failure is a hard error, never a silently smaller
    // pool: close the queues so the threads already spawned exit, join
    // them, and hand the caller the `io::Error`.
    let fail_spawn = |shared: &Arc<Shared>,
                      workers: Vec<JoinHandle<()>>,
                      scanners: Vec<JoinHandle<()>>,
                      e: io::Error| {
        shared.queue.close();
        shared.scans.close();
        for h in workers.into_iter().chain(scanners) {
            let _ = h.join();
        }
        ServeError::Io(e)
    };

    let mut pool: Vec<JoinHandle<()>> = Vec::with_capacity(workers);
    for i in 0..workers {
        let s = Arc::clone(&shared);
        match thread::Builder::new()
            .name(format!("sca-serve-worker-{i}"))
            .spawn(move || worker_loop(&s))
        {
            Ok(h) => pool.push(h),
            Err(e) => return Err(fail_spawn(&shared, pool, Vec::new(), e)),
        }
    }

    // The scan threads are named as workers: they run request work.
    let mut scanners: Vec<JoinHandle<()>> = Vec::with_capacity(workers);
    for i in 0..workers {
        let s = Arc::clone(&shared);
        match thread::Builder::new()
            .name(format!("sca-serve-worker-scan-{i}"))
            .spawn(move || scan_loop(&s))
        {
            Ok(h) => scanners.push(h),
            Err(e) => return Err(fail_spawn(&shared, pool, scanners, e)),
        }
    }

    let reactor = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("sca-serve-reactor".into())
            .spawn(move || reactor_loop(listener, &shared))
    };
    let reactor = match reactor {
        Ok(h) => h,
        Err(e) => return Err(fail_spawn(&shared, pool, scanners, e)),
    };

    Ok(ServerHandle {
        shared,
        reactor: Some(reactor),
        workers: pool,
        scanners,
    })
}

/// How much one nonblocking read pulls off a socket at a time.
const READ_CHUNK: usize = 16 * 1024;
/// Per-connection per-sweep read budget: a firehose pipeliner is
/// revisited next sweep instead of starving every other connection.
const READ_BURST_MAX: usize = 256 * 1024;
/// The timed-sweep period when nothing is happening. Producers with
/// fresh output ring the doorbell instead of waiting it out; inbound
/// socket bytes and new peers wait at most this long.
const SWEEP_IDLE: Duration = Duration::from_millis(5);
/// First accept-error backoff; doubles per consecutive error.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
/// Accept-error backoff ceiling.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);
/// Bytes a connection may still send after its fatal frame error before
/// it is closed regardless: the rest of one oversized frame, with room to
/// spare.
const DISCARD_BUDGET: usize = 16 * 1024 * 1024;
/// How long the exiting reactor keeps flushing already-queued replies
/// to slow peers before dropping the remaining connections.
const FINAL_FLUSH_GRACE: Duration = Duration::from_millis(250);

/// Nonblocking-io "try again later" (plus the timeout spelling some
/// platforms use for it).
fn would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// The accept backoff schedule: 10ms on the first error, doubling per
/// consecutive error, capped at 1s. A successful accept resets it (the
/// caller passes `None` again). This is what turns the old
/// `let Ok(stream) = stream else { continue }` 100%-CPU spin under fd
/// exhaustion into a bounded retry.
fn next_accept_backoff(previous: Option<Duration>) -> Duration {
    match previous {
        None => ACCEPT_BACKOFF_MIN,
        Some(d) => d.saturating_mul(2).min(ACCEPT_BACKOFF_MAX),
    }
}

/// One registered connection — the reactor-private half. An idle parked
/// connection is exactly this struct: a socket, an empty assembler, an
/// empty outbox, and a couple of timestamps. No thread, no stack.
struct Conn {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    assembler: FrameAssembler,
    /// When the last byte arrived (connect time until then).
    last_read: Instant,
    /// Set while outbound bytes are pending and writes make no
    /// progress; cleared by any successful write (or an empty outbox).
    write_stalled_since: Option<Instant>,
    /// At least one complete frame has arrived. Until then the peer is
    /// mid-handshake and subject to the stall timeout; afterwards a
    /// fully quiet connection parks indefinitely.
    spoke: bool,
    /// Peer half-closed its write side. Buffered frames still parse and
    /// in-flight replies still flush; the socket closes once both are
    /// drained and no producer holds a reference.
    eof: bool,
    /// A fatal frame error (oversized) was answered; the stream cannot be
    /// resynchronized, so once the error frame is flushed the connection
    /// only winds down (see [`discard_input`]).
    draining: bool,
    /// Bytes discarded since the write side was shut down; `None` until
    /// then.
    discarded: Option<usize>,
    /// A shutdown ack is in the outbox; `begin_shutdown` runs strictly
    /// after it (and everything before it) hits the socket, so the ack
    /// can never race process exit.
    shutdown_after_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream, shared: Arc<ConnShared>, max_frame_len: usize) -> Conn {
        Conn {
            stream,
            shared,
            assembler: FrameAssembler::new(max_frame_len),
            last_read: Instant::now(),
            write_stalled_since: None,
            spoke: false,
            eof: false,
            draining: false,
            discarded: None,
            shutdown_after_flush: false,
        }
    }
}

/// What one sweep concluded about one connection.
enum SweepOutcome {
    /// Something moved: bytes in, bytes out, a frame dispatched.
    Progress,
    /// Nothing to do.
    Idle,
    /// Deregister the connection.
    Close(CloseReason),
}

enum CloseReason {
    /// EOF fully drained, or a fatal frame error flushed.
    Clean,
    /// The stall timeout fired (mid-frame, handshake, or write stall).
    Timeout,
    /// The transport failed (reset, broken pipe).
    Transport,
}

/// The reactor: one thread owning the listener and every connection.
/// Each sweep accepts pending peers (with backoff on accept errors),
/// then serves every connection — flush outbox, nonblocking read into
/// the frame assembler, dispatch complete frames, stall-timeout checks
/// — and sleeps on the doorbell only when a full sweep made no
/// progress.
fn reactor_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let io_timeout = shared
        .config
        .io_timeout_ms
        .map(|ms| Duration::from_millis(ms.max(1)));
    let mut listener = Some(listener);
    let mut conns: Vec<Conn> = Vec::new();
    let mut backoff: Option<Duration> = None;
    let mut retry_at: Option<Instant> = None;
    let mut buf = vec![0u8; READ_CHUNK];
    loop {
        let mut progress = false;
        // Shutdown begun (wire command or `ServerHandle::shutdown`):
        // drop the listener so no new peer is accepted, keep sweeping
        // so queued work's replies still drain.
        if shared.shutdown.load(Ordering::SeqCst) && listener.is_some() {
            listener = None;
            progress = true;
        }
        if let Some(l) = &listener {
            if retry_at.is_none_or(|t| Instant::now() >= t) {
                match accept_burst(l, shared, &mut conns) {
                    AcceptOutcome::Accepted => {
                        progress = true;
                        backoff = None;
                        retry_at = None;
                    }
                    AcceptOutcome::Quiet => {
                        backoff = None;
                        retry_at = None;
                    }
                    AcceptOutcome::Errored => {
                        let delay = next_accept_backoff(backoff);
                        backoff = Some(delay);
                        retry_at = Some(Instant::now() + delay);
                    }
                }
            }
        }
        let mut i = 0;
        while i < conns.len() {
            match sweep_conn(shared, &mut conns[i], io_timeout, &mut buf) {
                SweepOutcome::Progress => {
                    progress = true;
                    i += 1;
                }
                SweepOutcome::Idle => i += 1,
                SweepOutcome::Close(reason) => {
                    let conn = conns.swap_remove(i);
                    close_conn(shared, conn, &reason);
                    progress = true;
                }
            }
        }
        if shared.reactor_stop.load(Ordering::SeqCst) {
            final_flush(shared, conns);
            return;
        }
        if !progress {
            shared.wake.wait(SWEEP_IDLE);
        }
    }
}

enum AcceptOutcome {
    Accepted,
    Quiet,
    Errored,
}

/// Accept every peer currently pending on the nonblocking listener.
/// Stops at the first real error (the caller backs off) and never
/// blocks.
fn accept_burst(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &mut Vec<Conn>,
) -> AcceptOutcome {
    let mut accepted = false;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                accepted = true;
                // Without NODELAY, Nagle + delayed ACK adds ~40ms to
                // every small response frame.
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    // A socket the reactor cannot make nonblocking
                    // would wedge every sweep; drop it.
                    continue;
                }
                if shared
                    .config
                    .max_connections
                    .is_some_and(|cap| conns.len() >= cap)
                {
                    reject_at_capacity(shared, stream, conns.len());
                    continue;
                }
                shared.conns_active.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::new(ConnShared::new(Arc::clone(&shared.wake)));
                conns.push(Conn::new(stream, conn_shared, shared.config.max_frame_len));
            }
            Err(e) if would_block(&e) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                shared
                    .counters
                    .accept_errors
                    .fetch_add(1, Ordering::Relaxed);
                sca_telemetry::counter("serve.accept_errors", 1);
                return AcceptOutcome::Errored;
            }
        }
    }
    if accepted {
        AcceptOutcome::Accepted
    } else {
        AcceptOutcome::Quiet
    }
}

/// Refuse a peer at the connection cap: one structured `overloaded`
/// frame (best effort — a fresh socket's send buffer holds it without
/// blocking), then a clean close.
fn reject_at_capacity(shared: &Arc<Shared>, mut stream: TcpStream, active: usize) {
    shared
        .counters
        .conns_rejected
        .fetch_add(1, Ordering::Relaxed);
    sca_telemetry::counter("serve.conns_rejected", 1);
    let trace = shared.next_trace.fetch_add(1, Ordering::Relaxed);
    let frame = with_trace_id(
        error_frame(
            KIND_OVERLOADED,
            &format!("connection limit reached ({active} active); retry later"),
        ),
        trace,
    );
    let mut line = frame.to_string();
    line.push('\n');
    let _ = stream.write(line.as_bytes());
}

/// Serve one connection for one sweep. Malformed frames get a
/// structured `bad_request` and the connection stays open — a client
/// typo (or one garbled frame mid-pipeline) never costs the session or
/// its other in-flight requests. The connection is *closed* (never left
/// hanging) in exactly three hostile cases: a stall timeout (mid-frame,
/// never-spoke, or never-draining peer — counted in `timeouts`), an
/// oversized frame (answered with a `bad_request` naming the limit
/// first, then wound down by [`discard_input`]), and a transport error.
fn sweep_conn(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    io_timeout: Option<Duration>,
    buf: &mut [u8],
) -> SweepOutcome {
    let mut progress = false;
    // 1. Drain the outbox. The reactor owns the write half; producers
    // only ever append.
    match conn.shared.outbox.flush_into(&mut conn.stream) {
        Ok(0) => {}
        Ok(_) => progress = true,
        Err(e) if would_block(&e) => {}
        Err(_) => return SweepOutcome::Close(CloseReason::Transport),
    }
    // The write-stall clock runs only while bytes are pending and no
    // write makes progress; any flushed byte (or an emptied outbox)
    // resets it.
    if conn.shared.outbox.is_empty() || progress {
        conn.write_stalled_since = None;
    } else if conn.write_stalled_since.is_none() {
        conn.write_stalled_since = Some(Instant::now());
    }
    // 2. A flushed shutdown ack is the signal to actually begin.
    if conn.shutdown_after_flush && conn.shared.outbox.is_empty() {
        conn.shutdown_after_flush = false;
        shared.begin_shutdown();
        progress = true;
    }
    // 3. A connection that answered a fatal frame error winds down once
    // the error frame is out (the write-stall timeout below still bounds
    // a peer that never drains it).
    if conn.draining {
        if conn.shared.outbox.is_empty() {
            match discard_input(conn, buf) {
                SweepOutcome::Progress => progress = true,
                SweepOutcome::Idle => {}
                close => return close,
            }
        }
    } else {
        // 4. Read whatever is available, unless the connection is
        // paused (an ordered request or reload in flight: ordering is
        // preserved by TCP backpressure, not server-side buffering).
        let paused = conn.shared.paused.load(Ordering::Acquire) || conn.shutdown_after_flush;
        if !paused && !conn.eof {
            loop {
                match conn.stream.read(buf) {
                    Ok(0) => {
                        conn.eof = true;
                        conn.assembler.set_eof();
                        progress = true;
                        break;
                    }
                    Ok(n) => {
                        conn.assembler.feed(&buf[..n]);
                        conn.last_read = Instant::now();
                        progress = true;
                        if n < buf.len() || conn.assembler.buffered() >= READ_BURST_MAX {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) if would_block(&e) => break,
                    Err(_) => return SweepOutcome::Close(CloseReason::Transport),
                }
            }
        }
        // 5. Dispatch complete frames. The pause flag is re-read every
        // iteration: dispatching an ordered request pauses the
        // connection mid-loop and later frames stay buffered until its
        // reply is ordered ahead of them.
        while !conn.shared.paused.load(Ordering::Acquire)
            && !conn.shutdown_after_flush
            && !conn.draining
        {
            match conn.assembler.next_frame() {
                Ok(Some(line)) => {
                    progress = true;
                    conn.spoke = true;
                    handle_frame(shared, conn, &line);
                }
                Ok(None) => break,
                Err(FrameTooLong { limit }) => {
                    progress = true;
                    // The burn happens for the TooLong reply too: it
                    // answers a frame that never finished arriving.
                    let trace = shared.next_trace.fetch_add(1, Ordering::Relaxed);
                    shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                    conn.shared.push(with_trace_id(
                        error_frame(
                            KIND_BAD_REQUEST,
                            &format!("frame exceeds the {limit}-byte limit; closing connection"),
                        ),
                        trace,
                    ));
                    conn.draining = true;
                    // Release the oversized frame's bytes now rather than
                    // at close.
                    conn.assembler = FrameAssembler::new(limit);
                }
            }
        }
        // 6. EOF wind-down. Once the assembler is drained no further
        // frame can arrive: close the open streams (a stream a worker is
        // pushing ends when that push does), and close the connection
        // when the outbox is dry and no worker still holds it — late
        // replies and events must still be written first.
        if conn.eof && conn.assembler.is_drained() {
            if close_streams(&conn.shared) {
                progress = true;
            }
            if conn.shared.outbox.is_empty() && Arc::strong_count(&conn.shared) == 1 {
                return SweepOutcome::Close(CloseReason::Clean);
            }
        }
    }
    // 7. The stall-timeout split. `timeouts` counts peers that are
    // *stuck* — mid-frame, never completed a first frame, or sitting on
    // undrained output — never peers that are merely parked: a
    // connection that has spoken, owes nothing, and is owed nothing may
    // idle past the timeout forever.
    if let Some(t) = io_timeout {
        if conn.write_stalled_since.is_some_and(|s| s.elapsed() >= t) {
            return SweepOutcome::Close(CloseReason::Timeout);
        }
        if conn.draining {
            // A rejected peer that goes quiet without closing has its
            // answer and owes nothing: let it go, uncounted.
            if conn.discarded.is_some() && conn.last_read.elapsed() >= t {
                return SweepOutcome::Close(CloseReason::Clean);
            }
        } else {
            let paused = conn.shared.paused.load(Ordering::Acquire) || conn.shutdown_after_flush;
            let awaiting_frame =
                !conn.eof && !paused && (conn.assembler.has_partial() || !conn.spoke);
            if awaiting_frame && conn.last_read.elapsed() >= t {
                return SweepOutcome::Close(CloseReason::Timeout);
            }
        }
    }
    if progress {
        SweepOutcome::Progress
    } else {
        SweepOutcome::Idle
    }
}

/// Wind down a connection whose fatal frame error is flushed. Closing a
/// socket with unread input makes the kernel send a reset instead of a
/// FIN, and the peer may then see `ECONNRESET` instead of EOF, or lose
/// the error frame altogether. So the write side is shut down first (the
/// peer reads the error frame, then EOF), and whatever the peer is still
/// sending is read and thrown away until its own EOF. Closes once that
/// EOF arrives, after [`DISCARD_BUDGET`] bytes, or on a transport error;
/// the stall timeout in [`sweep_conn`] bounds a peer that goes quiet.
fn discard_input(conn: &mut Conn, buf: &mut [u8]) -> SweepOutcome {
    let mut progress = false;
    let mut discarded = match conn.discarded {
        Some(n) => n,
        None => {
            let _ = conn.stream.shutdown(Shutdown::Write);
            conn.last_read = Instant::now();
            progress = true;
            0
        }
    };
    let mut burst = 0;
    loop {
        match conn.stream.read(buf) {
            Ok(0) => return SweepOutcome::Close(CloseReason::Clean),
            Ok(n) => {
                discarded += n;
                burst += n;
                conn.last_read = Instant::now();
                progress = true;
                if discarded >= DISCARD_BUDGET {
                    return SweepOutcome::Close(CloseReason::Clean);
                }
                if n < buf.len() || burst >= READ_BURST_MAX {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if would_block(&e) => break,
            Err(_) => return SweepOutcome::Close(CloseReason::Transport),
        }
    }
    conn.discarded = Some(discarded);
    if progress {
        SweepOutcome::Progress
    } else {
        SweepOutcome::Idle
    }
}

/// Deregister a connection: count it if it died to the stall timeout,
/// close its outbox so late producers become no-ops (a push in progress
/// stops at its next event), close its open streams, and drop the
/// socket.
fn close_conn(shared: &Arc<Shared>, conn: Conn, reason: &CloseReason) {
    if matches!(reason, CloseReason::Timeout) {
        shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
        sca_telemetry::counter("serve.timeouts", 1);
    }
    conn.shared.outbox.close();
    close_streams(&conn.shared);
    shared.conns_active.fetch_sub(1, Ordering::Relaxed);
}

/// Drop a connection's stream registry; returns whether it held any.
/// Each stream ends as soon as no job holds it either (see
/// [`WatchStream`]'s `Drop`).
fn close_streams(conn: &ConnShared) -> bool {
    let streams = std::mem::take(&mut *conn.streams());
    !streams.is_empty()
}

/// The exiting reactor's last act: keep flushing already-queued replies
/// for a bounded grace period, then drop every connection. Workers are
/// already gone, so the outboxes can only shrink.
fn final_flush(shared: &Arc<Shared>, mut conns: Vec<Conn>) {
    let deadline = Instant::now() + FINAL_FLUSH_GRACE;
    loop {
        let mut pending = false;
        conns.retain_mut(|conn| {
            if conn.shared.outbox.flush_into(&mut conn.stream).is_err() {
                return false;
            }
            if conn.shared.outbox.is_empty() {
                false
            } else {
                pending = true;
                true
            }
        });
        if !pending || Instant::now() >= deadline {
            break;
        }
        thread::sleep(Duration::from_millis(2));
    }
    for conn in &conns {
        conn.shared.outbox.close();
    }
    // Dropping the connections drops their stream registries: every
    // stream still open lands its flight entry here.
    drop(conns);
    shared.conns_active.store(0, Ordering::Relaxed);
}

/// Dispatch one complete frame. Every frame — work, control,
/// unparseable garbage — burns one trace id, so any response a client
/// ever sees can be named when reporting a problem.
fn handle_frame(shared: &Arc<Shared>, conn: &mut Conn, line: &str) {
    let trace = shared.next_trace.fetch_add(1, Ordering::Relaxed);
    if line.trim().is_empty() {
        return;
    }
    let parsed = match Json::parse(line) {
        Err(e) => {
            conn.shared.push(with_trace_id(
                error_frame(KIND_BAD_REQUEST, &format!("invalid JSON frame: {e}")),
                trace,
            ));
            return;
        }
        Ok(v) => v,
    };
    let id = request_id(&parsed);
    let wants_timings = request_wants_timings(&parsed);
    let response = match Request::from_json(&parsed) {
        Err(e) => Some(error_frame(KIND_BAD_REQUEST, &e)),
        // Acknowledge shutdown *before* initiating it: once the worker
        // pool unwinds the whole process may exit (CLI `serve`), and
        // the ack must not race that exit — so `begin_shutdown` waits
        // until the sweep sees the ack flushed.
        Ok(Request::Shutdown) => {
            let ack = ok_frame(vec![("stopping".into(), Json::Bool(true))]);
            conn.shared.push(decorate(ack, trace, id.as_ref()));
            conn.shutdown_after_flush = true;
            None
        }
        // Opening a stream is cheap (validation plus the session's
        // begin) and answers inline; its pushes, finish and events run
        // on the pool.
        Ok(watch @ Request::Watch { .. }) => Some(open_watch(shared, &conn.shared, trace, watch)),
        Ok(Request::WatchPush { stream, increments }) => {
            submit_stream(
                shared,
                &conn.shared,
                stream,
                Some(increments),
                trace,
                id.clone(),
            );
            None
        }
        Ok(Request::WatchFinish { stream }) => {
            submit_stream(shared, &conn.shared, stream, None, trace, id.clone());
            None
        }
        // Reload rebuilds a whole detector — far too slow for the
        // reactor thread. It runs on a worker with the connection
        // paused, preserving the old inline ordering.
        Ok(Request::ReloadRepo { path }) => {
            submit_reload(shared, &conn.shared, path, trace, id.clone());
            None
        }
        Ok(
            work @ (Request::Classify { .. }
            | Request::ClassifyBatch { .. }
            | Request::Model { .. }),
        ) => {
            submit_work(work, shared, trace, wants_timings, id.clone(), &conn.shared);
            None
        }
        Ok(req) => Some(dispatch(req, shared)),
    };
    if let Some(frame) = response {
        conn.shared.push(decorate(frame, trace, id.as_ref()));
    }
}

/// Answer a control request inline on the reactor; these are all cheap
/// snapshots (no model building, no scanning).
fn dispatch(request: Request, shared: &Arc<Shared>) -> Json {
    match request {
        Request::Ping => ok_frame(vec![
            ("pong".into(), Json::Bool(true)),
            ("protocol".into(), Json::Num(PROTOCOL_VERSION as f64)),
        ]),
        Request::Stats => stats_frame(shared),
        Request::Metrics => metrics_frame(shared),
        Request::Flight => flight_frame(shared),
        // Every other request is routed by `handle_frame` before it can
        // reach here; answer defensively rather than panicking the
        // reactor if that routing ever regresses.
        _ => error_frame(
            KIND_INTERNAL_ERROR,
            "request routed to the inline dispatcher by mistake",
        ),
    }
}

fn stats_frame(shared: &Arc<Shared>) -> Json {
    let s = shared.stats();
    let repo = shared.repo_snapshot();
    let num = |v: u64| Json::Num(v as f64);
    ok_frame(vec![
        (
            "stats".into(),
            Json::Obj(vec![
                ("received".into(), num(s.received)),
                ("completed".into(), num(s.completed)),
                ("shed".into(), num(s.shed)),
                ("deadline_exceeded".into(), num(s.deadline_exceeded)),
                ("errors".into(), num(s.errors)),
                ("reloads".into(), num(s.reloads)),
                ("panics".into(), num(s.panics)),
                ("timeouts".into(), num(s.timeouts)),
                ("accept_errors".into(), num(s.accept_errors)),
                ("conns_rejected".into(), num(s.conns_rejected)),
                ("conns_active".into(), num(s.conns_active)),
                ("queue_depth".into(), num(shared.queue.depth() as u64)),
                ("queue_capacity".into(), num(shared.queue.capacity() as u64)),
                ("in_flight".into(), num(s.in_flight)),
                ("busy_workers".into(), num(s.busy_workers)),
                (
                    "streams_active".into(),
                    num(shared.streams_active.load(Ordering::Relaxed)),
                ),
                ("workers".into(), num(shared.config.workers.max(1) as u64)),
                ("repo_generation".into(), num(repo.generation)),
                (
                    "repo_entries".into(),
                    num(repo.detector.repository().len() as u64),
                ),
                (
                    "model_cache_entries".into(),
                    num(shared.builder.len() as u64),
                ),
            ]),
        ),
        ("repo".into(), repo.json()),
    ])
}

/// The live server gauges, computed fresh on every call — gauges carry
/// instantaneous state, so they are observed at exposition time rather
/// than maintained incrementally.
fn live_gauges(shared: &Arc<Shared>) -> Vec<(String, u64)> {
    let s = shared.stats();
    let repo = shared.repo_snapshot();
    vec![
        ("serve.queue_depth".into(), shared.queue.depth() as u64),
        (
            "serve.queue_capacity".into(),
            shared.queue.capacity() as u64,
        ),
        ("serve.in_flight".into(), s.in_flight),
        ("serve.busy_workers".into(), s.busy_workers),
        ("serve.workers".into(), shared.config.workers.max(1) as u64),
        ("serve.repo_generation".into(), repo.generation),
        (
            "serve.repo_entries".into(),
            repo.detector.repository().len() as u64,
        ),
        (
            "serve.model_cache_entries".into(),
            shared.builder.len() as u64,
        ),
        ("serve.flight_recorded".into(), shared.flight.recorded()),
        (
            "serve.streams_active".into(),
            shared.streams_active.load(Ordering::Relaxed),
        ),
        ("serve.conns_active".into(), s.conns_active),
    ]
}

fn histogram_summary(h: &Histogram) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::Num(h.count() as f64)),
        ("min".into(), Json::Num(h.min() as f64)),
        ("max".into(), Json::Num(h.max() as f64)),
        ("mean".into(), Json::Num(h.mean())),
        ("p50".into(), Json::Num(h.percentile(50.0) as f64)),
        ("p90".into(), Json::Num(h.percentile(90.0) as f64)),
        ("p99".into(), Json::Num(h.percentile(99.0) as f64)),
    ])
}

/// The full telemetry snapshot as one frame: counters, gauges (registry
/// gauges merged with the live server gauges, which always win), and
/// histogram summaries. Live gauges are also published back into the
/// registry so JSONL exports carry them — a no-op while disabled.
fn metrics_frame(shared: &Arc<Shared>) -> Json {
    let live = live_gauges(shared);
    for (k, v) in &live {
        sca_telemetry::gauge(k, *v);
    }
    let snap = sca_telemetry::snapshot();
    let mut gauges: BTreeMap<String, u64> = snap.gauges;
    gauges.extend(live);
    ok_frame(vec![(
        "metrics".into(),
        Json::Obj(vec![
            ("telemetry".into(), Json::Bool(sca_telemetry::enabled())),
            (
                "counters".into(),
                Json::Obj(
                    snap.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                Json::Obj(
                    gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                Json::Obj(
                    snap.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), histogram_summary(h)))
                        .collect(),
                ),
            ),
        ]),
    )])
}

/// The flight recorder's resident entries, oldest first, each in the
/// same shape `sca_telemetry::parse_line` accepts.
fn flight_frame(shared: &Arc<Shared>) -> Json {
    let entries: Vec<Json> = shared.flight.snapshot().iter().map(request_json).collect();
    ok_frame(vec![(
        "flight".into(),
        Json::Obj(vec![
            (
                "capacity".into(),
                Json::Num(shared.flight.capacity() as f64),
            ),
            (
                "recorded".into(),
                Json::Num(shared.flight.recorded() as f64),
            ),
            ("entries".into(), Json::Arr(entries)),
        ]),
    )])
}

/// Load a repository (the configured path unless the request named one)
/// and atomically publish it as the next generation. On failure the
/// current repository stays live and the error — with file, line, and
/// reason — goes back to the client.
fn reload_repo(shared: &Arc<Shared>, path: Option<&str>) -> Json {
    let current = shared.repo_snapshot();
    let path: PathBuf = path.map_or_else(|| current.path.clone(), PathBuf::from);
    let repo = match load_repository(&path) {
        Ok(repo) => repo,
        Err(e) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            return error_frame(KIND_RELOAD_FAILED, &e.to_string());
        }
    };
    // The threshold was validated when the server started; re-check
    // instead of unwrapping so a future config path can never panic a
    // handler thread.
    let detector = match build_detector(repo, &path, shared.config.threshold) {
        Ok(d) => d,
        Err(e) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            return error_frame(KIND_RELOAD_FAILED, &e.to_string());
        }
    };
    let mut slot = shared.repo.lock().unwrap_or_else(|e| e.into_inner());
    let next = Arc::new(RepoState {
        generation: slot.generation + 1,
        path,
        detector: Arc::new(detector),
    });
    *slot = Arc::clone(&next);
    drop(slot);
    shared.counters.reloads.fetch_add(1, Ordering::Relaxed);
    sca_telemetry::counter("serve.reloads", 1);
    ok_frame(vec![("repo".into(), next.json())])
}

/// Run a `reload-repo`, answer it and lift the pause the reactor set at
/// admission. A panic fails the reload alone: the worker survives.
fn serve_reload(shared: &Arc<Shared>, path: Option<&str>, reply: &Reply) {
    let frame =
        catch_unwind(AssertUnwindSafe(|| reload_repo(shared, path))).unwrap_or_else(|payload| {
            let what = caught_panic(shared, &*payload);
            error_frame(KIND_INTERNAL_ERROR, &format!("reload panicked: {what}"))
        });
    reply.send(frame);
    reply.conn.unpause();
}

/// Queue a `reload-repo` with the connection paused, so no later frame
/// on it is answered before the reload's own reply. The pause comes
/// first, because the worker lifts it; a refusal (shutdown, or a full
/// queue) answers at once and lifts it here.
fn submit_reload(
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
    path: Option<String>,
    trace: u64,
    id: Option<Json>,
) {
    conn.paused.store(true, Ordering::Release);
    let reply = Reply {
        conn: Arc::clone(conn),
        trace,
        id: id.clone(),
    };
    if let Err(refusal) = enqueue(shared, Task::Reload { path, reply }) {
        conn.push(decorate(refusal, trace, id.as_ref()));
        conn.unpause();
    }
}

/// Open a watch stream: validate the inputs inline (victim spec,
/// assembly, threshold, an empty program — all answered synchronously
/// as `bad_request` / `model_error`), begin its session against the live
/// repository generation, and register it on the connection. The stream
/// holds no thread: its pushes and its finish are jobs for the pool.
fn open_watch(shared: &Arc<Shared>, conn: &ConnShared, stream_id: u64, request: Request) -> Json {
    let Request::Watch {
        name,
        program,
        victim,
        increment,
        threshold,
        sustain,
        deadline_ms,
    } = request
    else {
        return error_frame(KIND_INTERNAL_ERROR, "not a watch request");
    };
    if shared.shutdown.load(Ordering::SeqCst) {
        return error_frame(KIND_SHUTTING_DOWN, "server is shutting down");
    }
    let victim = match parse_victim(&victim) {
        Ok(v) => v,
        Err(e) => return error_frame(KIND_BAD_REQUEST, &e),
    };
    let program = match sca_isa::assemble(&name, &program) {
        Ok(p) => p,
        Err(e) => return error_frame(KIND_BAD_REQUEST, &format!("assembly failed: {e}")),
    };
    let mut cfg = StreamConfig::default();
    if let Some(n) = increment {
        cfg.increment = n.max(1);
    }
    if let Some(t) = threshold {
        cfg.threshold = t;
    }
    if let Some(k) = sustain {
        cfg.sustain = u32::try_from(k.clamp(1, u64::from(u32::MAX))).expect("clamped");
    }
    if let Err(e) = StreamSession::validate_threshold(&cfg) {
        return error_frame(KIND_BAD_REQUEST, &e.to_string());
    }
    // Like work admission, the repository generation is fixed when the
    // stream opens: every increment of one stream scores against
    // exactly one generation, regardless of concurrent reloads.
    let repo = shared.repo_snapshot();
    // An empty program fails at the ack, not as a first pushed event —
    // the rejection is the same one batch modeling gives.
    let session = match StreamSession::begin(
        Arc::clone(&repo.detector),
        &program,
        &victim,
        &ModelingConfig::default(),
        &cfg,
    ) {
        Ok(s) => s,
        Err(e) => return error_frame(KIND_MODEL_ERROR, &e.to_string()),
    };
    shared.streams_active.fetch_add(1, Ordering::Relaxed);
    let stream = WatchStream {
        shared: Arc::clone(shared),
        id: stream_id,
        name,
        deadline_ms: deadline_ms.or(shared.config.deadline_ms),
        opened: Instant::now(),
        state: Mutex::new(StreamState {
            session,
            outcome: Outcome::Error,
            verdict: None,
            alarms: 0,
        }),
    };
    conn.streams().insert(stream_id, Arc::new(stream));
    sca_telemetry::counter("serve.streams_opened", 1);
    ok_frame(vec![
        ("event".into(), Json::Str("watching".into())),
        ("stream".into(), Json::Num(stream_id as f64)),
        ("increment".into(), Json::Num(cfg.increment as f64)),
        ("threshold".into(), Json::Num(cfg.threshold)),
        ("sustain".into(), Json::Num(f64::from(cfg.sustain.max(1)))),
        ("repo".into(), repo.json()),
    ])
}

/// Queue a `watch-push` (`increments` is `Some`) or a `watch-finish`
/// (`None`) on an open stream, with the connection paused until the
/// worker's last event: the pause, not a channel, keeps a stream's
/// events in order. A stream id that is not open on this connection is
/// answered inline with `bad_request`. A refusal (shutdown, or a full
/// queue) answers with an error event that names the stream and ends
/// the push (`last`); the stream stays open, so the client can retry.
fn submit_stream(
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
    stream_id: u64,
    increments: Option<u64>,
    trace: u64,
    id: Option<Json>,
) {
    let Some(stream) = conn.streams().get(&stream_id).cloned() else {
        let frame = error_frame(
            KIND_BAD_REQUEST,
            &format!("no open watch stream {stream_id} on this connection"),
        );
        conn.push(decorate(frame, trace, id.as_ref()));
        return;
    };
    conn.paused.store(true, Ordering::Release);
    let reply = Reply {
        conn: Arc::clone(conn),
        trace,
        id: id.clone(),
    };
    let task = Task::Stream {
        stream,
        increments,
        reply,
    };
    if let Err(refusal) = enqueue(shared, task) {
        conn.push(decorate(
            error_event(stream_id, refusal),
            trace,
            id.as_ref(),
        ));
        conn.unpause();
    }
}

/// One open watch stream (DESIGN.md §17): an online [`StreamSession`]
/// and its counters. The connection's registry holds it while it is
/// open, and a push or finish job while a worker runs it. Whoever lets
/// go last — however the stream ended: done, finish, panic, disconnect
/// or shutdown — runs `Drop`, which lands the stream's one flight entry
/// and takes it off `serve.streams_active`.
struct WatchStream {
    shared: Arc<Shared>,
    id: u64,
    /// The program's name, which the `done` detection carries.
    name: String,
    /// Per-increment deadline budget; a miss ends the push, not the
    /// stream.
    deadline_ms: Option<u64>,
    opened: Instant,
    /// Only one job runs a stream at a time (its connection is paused
    /// meanwhile), so this lock is never contended.
    state: Mutex<StreamState>,
}

struct StreamState {
    session: StreamSession,
    /// How the stream ended: `Error` (its client went away) until a
    /// `done` event or a panic says otherwise.
    outcome: Outcome,
    verdict: Option<String>,
    alarms: u64,
}

impl Drop for WatchStream {
    fn drop(&mut self) {
        // One summary per stream, not per increment — and deliberately
        // never recorded into the `serve.latency_ns` histogram: a
        // stream's lifetime is set by how long the client keeps
        // pushing, and folding that into the per-request histogram
        // would drown the worker latencies it summarizes.
        let state = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        self.shared.flight.record(RequestSummary {
            trace_id: self.id,
            name: "watch".into(),
            outcome: state.outcome,
            verdict: state.verdict.take(),
            latency_ns: self.opened.elapsed().as_nanos() as u64,
            stages: vec![
                ("increments".into(), state.session.increments()),
                ("alarms".into(), state.alarms),
            ],
        });
        self.shared.streams_active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Run a `watch-push` (`increments` is `Some`) or `watch-finish`
/// (`None`) on `stream`, sending each event as it happens, then lift the
/// pause the reactor set at admission. A stream that ended (its trace
/// did, it was finished, or it panicked) leaves the registry first, so
/// the connection's next frame finds it closed. Panic isolation, stream
/// edition: a panic costs exactly this stream — the connection, its
/// other streams, and the worker stay whole.
fn serve_stream(
    shared: &Arc<Shared>,
    stream: &WatchStream,
    increments: Option<u64>,
    reply: &Reply,
) {
    let ended = catch_unwind(AssertUnwindSafe(|| {
        let mut state = stream.state();
        match increments {
            Some(n) => stream.push(&mut state, n, reply),
            None => {
                stream.finish(&mut state, reply);
                true
            }
        }
    }))
    .unwrap_or_else(|payload| {
        let what = caught_panic(shared, &*payload);
        stream.state().outcome = Outcome::Panic;
        reply.send(error_event(
            stream.id,
            error_frame(
                KIND_INTERNAL_ERROR,
                &format!("stream panicked mid-increment: {what}"),
            ),
        ));
        true
    });
    if ended {
        reply.conn.streams().remove(&stream.id);
    }
    reply.conn.unpause();
}

impl WatchStream {
    fn state(&self) -> std::sync::MutexGuard<'_, StreamState> {
        // A panic mid-increment ends the stream; afterwards only its
        // counters are read.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The per-increment deadline, re-armed fresh for each unit of work.
    fn deadline(&self) -> Option<Instant> {
        self.deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms))
    }

    /// Commit up to `increments` increments, emitting events as they
    /// happen; returns whether the trace ended. A closed outbox stops the
    /// push at the first increment whose events it refused: the client
    /// is gone, and nobody will read what the rest of the push owes.
    fn push(&self, state: &mut StreamState, increments: u64, reply: &Reply) -> bool {
        let want = increments.max(1);
        for i in 0..want {
            let Ok(update) = state.session.push(None, self.deadline()) else {
                // The increment's instructions stay committed; the
                // stream survives and the client may push again.
                self.shared
                    .counters
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
                sca_telemetry::counter("serve.deadline_exceeded", 1);
                reply.send(error_event(
                    self.id,
                    error_frame(
                        KIND_DEADLINE_EXCEEDED,
                        "deadline passed mid-scan; the increment stays committed — push again to retry",
                    ),
                ));
                return false;
            };
            sca_telemetry::counter("serve.stream_increments", 1);
            if let Some(alarm) = &update.fired {
                state.alarms += 1;
                state.verdict = Some(format!("alarm:{}", alarm.family));
                sca_telemetry::counter("serve.stream_alarms", 1);
            }
            // `last` marks the final event of this push so a client can
            // read to a deterministic stop; it is never set on an event
            // another one follows — in particular not on the progress
            // event of the increment that completes the trace, because
            // the `done` frame still follows it.
            let push_ends = update.done || i + 1 == want;
            let mut delivered = reply.send(progress_event(
                self.id,
                &update,
                push_ends && update.fired.is_none() && !update.done,
            ));
            if let Some(alarm) = &update.fired {
                delivered &= reply.send(alarm_event(self.id, alarm, push_ends && !update.done));
            }
            if update.done {
                self.finish(state, reply);
                return true;
            }
            if !delivered {
                return false;
            }
        }
        false
    }

    /// Emit the terminal `done` event — increments, steps, the latched
    /// alarm if any, and the current prefix's detection (rendered with
    /// the same `detection_json` as classify, so the `detection` object
    /// is byte-identical to classifying the prefix outright).
    fn finish(&self, state: &mut StreamState, reply: &Reply) {
        let detection = state
            .session
            .detection(self.deadline())
            .ok()
            .map(|d| detection_json(&self.name, &d));
        if state.verdict.is_none() {
            state.verdict = detection.as_ref().and_then(verdict);
        }
        let session = &state.session;
        let mut fields = vec![
            ("event".into(), Json::Str("done".into())),
            ("stream".into(), Json::Num(self.id as f64)),
            ("increments".into(), Json::Num(session.increments() as f64)),
            ("steps".into(), Json::Num(session.steps() as f64)),
            ("done".into(), Json::Bool(session.is_done())),
            ("alarmed".into(), Json::Bool(session.alarm().is_some())),
        ];
        if let Some(alarm) = session.alarm() {
            fields.push(("alarm".into(), alarm_json(alarm)));
        }
        if let Some(d) = detection {
            fields.push(("detection".into(), d));
        }
        fields.push(("last".into(), Json::Bool(true)));
        reply.send(ok_frame(fields));
        state.outcome = Outcome::Ok;
    }
}

/// A detection's verdict, as the flight recorder names it.
fn verdict(detection: &Json) -> Option<String> {
    match detection.get("attack") {
        Some(Json::Bool(true)) => Some("attack".into()),
        Some(Json::Bool(false)) => Some("benign".into()),
        _ => None,
    }
}

/// Count a caught panic in `serve.panics` and name its payload.
fn caught_panic<'a>(shared: &Shared, payload: &'a (dyn Any + Send)) -> &'a str {
    shared.counters.panics.fetch_add(1, Ordering::Relaxed);
    sca_telemetry::counter("serve.panics", 1);
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}

/// Render a fired [`Alarm`] as its wire object.
fn alarm_json(alarm: &Alarm) -> Json {
    Json::Obj(vec![
        ("at_step".into(), Json::Num(alarm.at_step as f64)),
        ("at_increment".into(), Json::Num(alarm.at_increment as f64)),
        ("family".into(), Json::Str(alarm.family.to_string())),
        ("poc".into(), Json::Str(alarm.poc.to_string())),
        ("score".into(), Json::Num(alarm.score)),
    ])
}

/// One `progress` event: where the stream is after one increment.
fn progress_event(stream: u64, update: &StreamUpdate, last: bool) -> Json {
    let mut fields = vec![
        ("event".into(), Json::Str("progress".into())),
        ("stream".into(), Json::Num(stream as f64)),
        ("increment".into(), Json::Num(update.increment as f64)),
        ("committed".into(), Json::Num(update.committed as f64)),
        ("steps".into(), Json::Num(update.steps as f64)),
        ("done".into(), Json::Bool(update.done)),
    ];
    if let Some((_, score)) = update.best {
        fields.push(("score".into(), Json::Num(score)));
    }
    if let Some(poc) = &update.best_poc {
        fields.push(("best_poc".into(), Json::Str(poc.to_string())));
    }
    if let Some(family) = update.best_family {
        fields.push(("best_family".into(), Json::Str(family.to_string())));
    }
    if last {
        fields.push(("last".into(), Json::Bool(true)));
    }
    ok_frame(fields)
}

/// One `alarm` event: the early-alarm policy fired on this increment.
fn alarm_event(stream: u64, alarm: &Alarm, last: bool) -> Json {
    let mut fields = vec![
        ("event".into(), Json::Str("alarm".into())),
        ("stream".into(), Json::Num(stream as f64)),
        ("alarm".into(), alarm_json(alarm)),
    ];
    if last {
        fields.push(("last".into(), Json::Bool(true)));
    }
    ok_frame(fields)
}

/// An error frame as a stream event: it names its stream and carries
/// `"last":true`, because nothing follows it in this push.
fn error_event(stream: u64, frame: Json) -> Json {
    match frame {
        Json::Obj(mut fields) => {
            fields.push(("stream".into(), Json::Num(stream as f64)));
            fields.push(("last".into(), Json::Bool(true)));
            Json::Obj(fields)
        }
        other => other,
    }
}

/// Offer `task` to the admission queue, or hand back the frame that
/// refuses it: `shutting_down`, or — when the queue is full — the
/// retryable `overloaded`, counted in `shed`.
fn enqueue(shared: &Shared, task: Task) -> Result<(), Json> {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err(error_frame(KIND_SHUTTING_DOWN, "server is shutting down"));
    }
    let depth = shared.queue.try_push(task).map_err(|_| {
        shared.counters.shed.fetch_add(1, Ordering::Relaxed);
        sca_telemetry::counter("serve.shed", 1);
        error_frame(
            KIND_OVERLOADED,
            &format!(
                "admission queue full ({} queued); retry later",
                shared.queue.capacity()
            ),
        )
    })?;
    sca_telemetry::record("serve.queue_depth", depth as u64);
    Ok(())
}

/// Admit a work request onto the queue with the given reply route, or
/// hand back the error frame explaining why it was refused (shutdown or
/// shed). Admission bumps `in_flight`; the worker drops it after
/// answering.
fn admit(
    request: Request,
    shared: &Arc<Shared>,
    wants_timings: bool,
    reply: Reply,
) -> Result<(), Json> {
    let trace = reply.trace;
    shared.counters.received.fetch_add(1, Ordering::Relaxed);
    sca_telemetry::counter("serve.requests", 1);
    let deadline_ms = match &request {
        Request::Classify { deadline_ms, .. }
        | Request::ClassifyBatch { deadline_ms, .. }
        | Request::Model { deadline_ms, .. } => deadline_ms.or(shared.config.deadline_ms),
        _ => None,
    };
    let kind = request_kind(&request);
    let job = Job {
        request,
        repo: shared.repo_snapshot(),
        deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
        enqueued: Instant::now(),
        reply,
        wants_timings,
    };
    // Counted before the job is visible to a worker, which may answer
    // it (and drop the count) at once.
    shared.in_flight.fetch_add(1, Ordering::Relaxed);
    let refusal = match enqueue(shared, Task::Work(job)) {
        Ok(()) => return Ok(()),
        Err(frame) => frame,
    };
    shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    // Shed requests never reach a worker, so the admission path is the
    // only place their story can enter the flight ring.
    if protocol::error_kind(&refusal) == Some(KIND_OVERLOADED) {
        shared.flight.record(RequestSummary {
            trace_id: trace,
            name: kind.into(),
            outcome: Outcome::Shed,
            verdict: None,
            latency_ns: 0,
            stages: Vec::new(),
        });
    }
    Err(refusal)
}

/// Admit a work request. Untagged work keeps one-in-one-out ordering:
/// the connection pauses first (the reactor stops reading and parsing
/// it), and the worker lifts the pause once its reply is in the outbox.
/// Tagged work is pipelined: admitted without pausing, answered whenever
/// it completes, possibly overtaking other in-flight work. Refusals
/// answer at once.
fn submit_work(
    request: Request,
    shared: &Arc<Shared>,
    trace: u64,
    wants_timings: bool,
    id: Option<Json>,
    conn: &Arc<ConnShared>,
) {
    let ordered = id.is_none();
    if ordered {
        conn.paused.store(true, Ordering::Release);
    }
    let reply = Reply {
        conn: Arc::clone(conn),
        trace,
        id: id.clone(),
    };
    if let Err(refusal) = admit(request, shared, wants_timings, reply) {
        conn.push(decorate(refusal, trace, id.as_ref()));
        if ordered {
            conn.unpause();
        }
    }
}

/// Wall-clock stage timings for one request, measured directly with
/// `Instant` rather than derived from spans, so the breakdown exists —
/// and sums to the reported total — whether or not the telemetry
/// registry is enabled.
#[derive(Default)]
struct Stages {
    entries: Vec<(String, u64)>,
}

impl Stages {
    fn push(&mut self, name: &str, ns: u64) {
        self.entries.push((format!("{name}_ns"), ns));
    }

    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.push(name, start.elapsed().as_nanos() as u64);
        out
    }
}

/// The `timings` object attached to a response when the request asked
/// for one. The top-level `*_ns` stages sum to `total_ns` up to
/// measurement noise; the span-derived DTW/lower-bound split (only
/// available with telemetry on) nests under `detail`, so it never skews
/// that sum.
fn timings_json(total_ns: u64, stages: &Stages, detail: Option<(u64, u64)>) -> Json {
    let mut fields: Vec<(String, Json)> = vec![("total_ns".into(), Json::Num(total_ns as f64))];
    fields.extend(
        stages
            .entries
            .iter()
            .map(|(k, ns)| (k.clone(), Json::Num(*ns as f64))),
    );
    if let Some((lb_ns, dtw_ns)) = detail {
        fields.push((
            "detail".into(),
            Json::Obj(vec![
                ("lb_ns".into(), Json::Num(lb_ns as f64)),
                ("dtw_ns".into(), Json::Num(dtw_ns as f64)),
            ]),
        ));
    }
    Json::Obj(fields)
}

/// Split the drained compare spans into time resolved by the
/// lower-bound cascade (or early abandoning) vs. full DTW runs.
fn compare_split(spans: &[SpanRecord]) -> (u64, u64) {
    let (mut lb_ns, mut dtw_ns) = (0u64, 0u64);
    for s in spans {
        if s.name != "pipeline.compare.dtw" {
            continue;
        }
        let exact = matches!(s.attr("exact"), Some(AttrValue::Bool(true)));
        if exact {
            dtw_ns += s.duration_ns;
        } else {
            lb_ns += s.duration_ns;
        }
    }
    (lb_ns, dtw_ns)
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(task) = shared.queue.pop() {
        shared.busy_workers.fetch_add(1, Ordering::Relaxed);
        match task {
            Task::Work(job) => serve_work(shared, &job),
            Task::Stream {
                stream,
                increments,
                reply,
            } => serve_stream(shared, &stream, increments, &reply),
            Task::Reload { path, reply } => serve_reload(shared, path.as_deref(), &reply),
        }
        shared.busy_workers.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Serve one work request and account for it: latency histogram, flight
/// entry, slow log, `in_flight`, and the reply.
fn serve_work(shared: &Arc<Shared>, job: &Job) {
    // Key every span opened while handling this job — serve.request
    // here, detect.scan and the compare spans inside the detector — to
    // the request's trace id.
    let trace = sca_telemetry::trace_scope(job.reply.trace);
    let mut sp = sca_telemetry::span("serve.request");
    let queue_wait_ns = job.enqueued.elapsed().as_nanos() as u64;
    sca_telemetry::record("serve.queue_wait_ns", queue_wait_ns);
    let mut stages = Stages::default();
    stages.push("queue_wait", queue_wait_ns);
    // Panic isolation: a panic anywhere in the classify/model work must
    // cost exactly one request, not a pool slot. Without the catch, the
    // panicking worker thread dies silently, the pool shrinks forever,
    // and an ordered request's connection stays paused. `Shared` state
    // crossing the boundary is lock-protected with explicit
    // poison-recovery (queue, repo slot, builder shards) or atomic, so
    // observing it after an unwind is sound.
    let caught = catch_unwind(AssertUnwindSafe(|| execute(shared, job, &mut stages)));
    let panicked = caught.is_err();
    let frame = caught.unwrap_or_else(|payload| {
        let what = caught_panic(shared, &*payload);
        error_frame(
            KIND_INTERNAL_ERROR,
            &format!("worker panicked serving the request: {what}"),
        )
    });
    if sp.is_recording() {
        sp.attr("ok", protocol::is_ok(&frame));
    }
    let latency_ns = job.enqueued.elapsed().as_nanos() as u64;
    sca_telemetry::record("serve.latency_ns", latency_ns);
    // Land the serve.request span, then drain this trace's spans out of
    // the registry: they feed the timing detail and the slow-log dump,
    // and draining them is what keeps a resident server's span log
    // bounded.
    drop(sp);
    drop(trace);
    let spans = if sca_telemetry::enabled() {
        sca_telemetry::take_trace_spans(job.reply.trace)
    } else {
        Vec::new()
    };
    let outcome = if panicked {
        Outcome::Panic
    } else if protocol::is_ok(&frame) {
        Outcome::Ok
    } else {
        match protocol::error_kind(&frame).and_then(ErrorKind::parse) {
            Some(ErrorKind::DeadlineExceeded) => Outcome::Timeout,
            _ => Outcome::Error,
        }
    };
    let summary = RequestSummary {
        trace_id: job.reply.trace,
        name: request_kind(&job.request).into(),
        outcome,
        verdict: frame.get("detection").and_then(verdict),
        latency_ns,
        stages: stages.entries.clone(),
    };
    let slow = shared
        .config
        .slow_ms
        .is_some_and(|ms| latency_ns >= ms.saturating_mul(1_000_000));
    if slow {
        sca_telemetry::counter("serve.slow_requests", 1);
        shared.write_slow_dump(&summary, &spans);
    }
    shared.flight.record(summary);
    let frame = if job.wants_timings {
        let detail = (!spans.is_empty()).then(|| compare_split(&spans));
        match frame {
            Json::Obj(mut fields) => {
                fields.push(("timings".into(), timings_json(latency_ns, &stages, detail)));
                Json::Obj(fields)
            }
            other => other,
        }
    } else {
        frame
    };
    // `in_flight` is documented exact: it must drop *before* the reply
    // leaves, or a client that pipelines `metrics` right behind a
    // classify can observe its own answered request as still in flight.
    // `busy_workers` stays eventually consistent (decremented after the
    // send) by the same documentation.
    shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    // A connection that went away closed its outbox; these are no-ops
    // there.
    job.reply.send(frame);
    if job.reply.id.is_none() {
        job.reply.conn.unpause();
    }
}

/// Drain the scan queue. The thread keeps a private clone of the
/// detector, re-cloned only when the repository generation moves, so
/// steady-state scans touch no cross-thread locks at all — this is what
/// lets concurrent classifies scan in parallel instead of serializing on
/// one detector's scan-state mutex.
fn scan_loop(shared: &Arc<Shared>) {
    let mut cache: Option<(u64, Detector)> = None;
    while let Some(task) = shared.scans.pop() {
        if cache
            .as_ref()
            .is_none_or(|(generation, _)| *generation != task.repo.generation)
        {
            // A deep clone: cloning the `Arc` would put every scan
            // thread back behind one detector's scan-state mutex.
            cache = Some((task.repo.generation, Detector::clone(&task.repo.detector)));
        }
        let (_, detector) = cache.as_ref().expect("cache was just filled");
        // Key the scan's engine spans to the originating request; the
        // worker drains them after this reply arrives.
        let trace = sca_telemetry::trace_scope(task.trace_id);
        let result = detector.scan(&task.target, &deadline_request(task.deadline));
        drop(trace);
        let _ = task.reply.send(result);
    }
}

/// A serial, unseeded scan under `deadline`.
fn deadline_request(deadline: Option<Instant>) -> ScanRequest {
    ScanRequest {
        deadline,
        ..ScanRequest::default()
    }
}

/// Scan `target` against `repo` on the scan pool and wait for the
/// detection. A saturated or closing pool scans inline on this worker
/// instead of waiting behind the very pool it is trying to feed.
fn pooled_scan(
    shared: &Arc<Shared>,
    repo: &Arc<RepoState>,
    target: &Arc<CstBbs>,
    deadline: Option<Instant>,
    trace_id: u64,
) -> Result<Detection, DeadlineExceeded> {
    let (reply, answer) = mpsc::channel();
    let task = ScanTask {
        repo: Arc::clone(repo),
        target: Arc::clone(target),
        deadline,
        trace_id,
        reply,
    };
    if let Err(task) = shared.scans.try_push(task) {
        return task
            .repo
            .detector
            .scan(&task.target, &deadline_request(deadline));
    }
    answer.recv().expect("a scan thread answers every task")
}

/// Victim parse, assembly, and the builder's (possibly cached) CST-BBS
/// lookup for one program — everything before the scan. Returns the
/// model plus the stage's wall-clock cost, or the error `(kind,
/// message)` pair for the caller to route (whole-frame failure for
/// `classify`/`model`, per-program result for `classify-batch`).
fn build_model(
    shared: &Arc<Shared>,
    name: &str,
    source: &str,
    victim_spec: &str,
) -> Result<(Arc<CstBbs>, u64), (&'static str, String)> {
    let start = Instant::now();
    let victim = parse_victim(victim_spec).map_err(|e| (KIND_BAD_REQUEST, e))?;
    let program = sca_isa::assemble(name, source)
        .map_err(|e| (KIND_BAD_REQUEST, format!("assembly failed: {e}")))?;
    let model = shared
        .builder
        .build_cst(&program, &victim)
        .map_err(|e| (KIND_MODEL_ERROR, e.to_string()))?;
    Ok((model, start.elapsed().as_nanos() as u64))
}

/// Classify one prebuilt model on the scan pool and render its detection
/// object (byte-identical to the offline CLI's).
fn classify_one(
    shared: &Arc<Shared>,
    repo: &Arc<RepoState>,
    name: &str,
    model: &Arc<CstBbs>,
    threshold: Option<f64>,
    deadline: Option<Instant>,
    trace_id: u64,
) -> Result<Json, (&'static str, String)> {
    if let Some(t) = threshold {
        if !(0.0..=1.0).contains(&t) {
            return Err((KIND_BAD_REQUEST, format!("threshold out of range: {t}")));
        }
    }
    let mut detection = pooled_scan(shared, repo, model, deadline, trace_id).map_err(|_| {
        (
            KIND_DEADLINE_EXCEEDED,
            "deadline passed during similarity scan".to_string(),
        )
    })?;
    if let Some(t) = threshold {
        // The threshold gates only the verdict, never the scan: the
        // winner is identical for every threshold, so a per-request
        // override is exact.
        detection.threshold = t;
    }
    Ok(detection_json(name, &detection))
}

/// Run one admitted job to an answer frame, pushing each stage's
/// wall-clock cost into `stages` as it completes (a request that fails
/// mid-way carries the stages it finished). Counter bookkeeping for the
/// terminal states (completed / deadline / error) happens here so the
/// `stats` command reflects worker outcomes, not admission outcomes.
fn execute(shared: &Arc<Shared>, job: &Job, stages: &mut Stages) -> Json {
    let fail = |kind: &str, message: &str| {
        let c = if kind == KIND_DEADLINE_EXCEEDED {
            &shared.counters.deadline_exceeded
        } else {
            &shared.counters.errors
        };
        c.fetch_add(1, Ordering::Relaxed);
        if kind == KIND_DEADLINE_EXCEEDED {
            sca_telemetry::counter("serve.deadline_exceeded", 1);
        }
        error_frame(kind, message)
    };

    let expired = |deadline: Option<Instant>| deadline.is_some_and(|d| Instant::now() >= d);
    if expired(job.deadline) {
        return fail(KIND_DEADLINE_EXCEEDED, "deadline passed while queued");
    }

    let sleep_ms = match &job.request {
        Request::Classify { debug_sleep_ms, .. }
        | Request::ClassifyBatch { debug_sleep_ms, .. }
        | Request::Model { debug_sleep_ms, .. } => *debug_sleep_ms,
        // Control requests are answered inline by the handler and never
        // reach the queue.
        _ => return fail(KIND_BAD_REQUEST, "not a work request"),
    };

    if sleep_ms > 0 {
        stages.time("debug_sleep", || {
            thread::sleep(Duration::from_millis(sleep_ms));
        });
        if expired(job.deadline) {
            return fail(KIND_DEADLINE_EXCEEDED, "deadline passed during debug sleep");
        }
    }

    // Fault-injection hook: stand in for any unexpected panic in the
    // pipeline below, at the point where the real work would start.
    // The catch_unwind in `worker_loop` must turn this into a
    // structured `internal_error` with the pool intact — the chaos
    // harness asserts exactly that.
    if let Request::Classify {
        debug_panic: true, ..
    } = &job.request
    {
        panic!("debug_panic requested by the client");
    }

    let frame = match &job.request {
        Request::Model {
            name,
            program,
            victim,
            ..
        } => {
            let model = match build_model(shared, name, program, victim) {
                Ok((model, ns)) => {
                    stages.push("model", ns);
                    model
                }
                Err((kind, msg)) => return fail(kind, &msg),
            };
            stages.time("render", || {
                ok_frame(vec![
                    ("repo".into(), job.repo.json()),
                    ("model".into(), Json::Str(model_text(&model))),
                    ("steps".into(), Json::Num(model.steps().len() as f64)),
                ])
            })
        }
        Request::Classify {
            name,
            program,
            victim,
            threshold,
            ..
        } => {
            let model = match build_model(shared, name, program, victim) {
                Ok((model, ns)) => {
                    stages.push("model", ns);
                    model
                }
                Err((kind, msg)) => return fail(kind, &msg),
            };
            let scan_start = Instant::now();
            let out = classify_one(
                shared,
                &job.repo,
                name,
                &model,
                *threshold,
                job.deadline,
                job.reply.trace,
            );
            // Record how long the scan ran even when it aborts: that is
            // exactly the number a timeout post-mortem needs.
            stages.push("scan", scan_start.elapsed().as_nanos() as u64);
            let detection = match out {
                Ok(d) => d,
                Err((kind, msg)) => return fail(kind, &msg),
            };
            stages.time("render", || {
                ok_frame(vec![
                    ("repo".into(), job.repo.json()),
                    ("detection".into(), detection),
                ])
            })
        }
        Request::ClassifyBatch { programs, .. } => {
            let mut model_ns = 0u64;
            let mut scan_ns = 0u64;
            let mut results: Vec<Json> = Vec::with_capacity(programs.len());
            for p in programs {
                // The deadline covers the whole frame; once it passes,
                // the remaining programs could only ever time out too,
                // so the frame fails as a unit — exactly like a single
                // classify that dies mid-scan.
                if expired(job.deadline) {
                    stages.push("model", model_ns);
                    stages.push("scan", scan_ns);
                    return fail(
                        KIND_DEADLINE_EXCEEDED,
                        &format!(
                            "deadline passed after {} of {} programs",
                            results.len(),
                            programs.len()
                        ),
                    );
                }
                let one =
                    build_model(shared, &p.name, &p.program, &p.victim).and_then(|(model, ns)| {
                        model_ns += ns;
                        let scan_start = Instant::now();
                        let out = classify_one(
                            shared,
                            &job.repo,
                            &p.name,
                            &model,
                            p.threshold,
                            job.deadline,
                            job.reply.trace,
                        );
                        scan_ns += scan_start.elapsed().as_nanos() as u64;
                        out
                    });
                match one {
                    Ok(detection) => {
                        results.push(Json::Obj(vec![("detection".into(), detection)]));
                    }
                    Err((kind, msg)) if kind == KIND_DEADLINE_EXCEEDED => {
                        stages.push("model", model_ns);
                        stages.push("scan", scan_ns);
                        return fail(kind, &msg);
                    }
                    // A bad program fails alone: its siblings' results
                    // stay exact and keep their submission-order slots.
                    Err((kind, msg)) => {
                        sca_telemetry::counter("serve.batch_program_errors", 1);
                        results.push(Json::Obj(vec![(
                            "error".into(),
                            Json::Obj(vec![
                                ("kind".into(), Json::Str(kind.into())),
                                ("message".into(), Json::Str(msg)),
                            ]),
                        )]));
                    }
                }
            }
            stages.push("model", model_ns);
            stages.push("scan", scan_ns);
            sca_telemetry::counter("serve.batch_programs", programs.len() as u64);
            stages.time("render", || {
                ok_frame(vec![
                    ("repo".into(), job.repo.json()),
                    ("results".into(), Json::Arr(results)),
                ])
            })
        }
        _ => unreachable!("filtered above"),
    };
    shared.counters.completed.fetch_add(1, Ordering::Relaxed);
    sca_telemetry::counter("serve.completed", 1);
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    // EMFILE cannot be injected into an in-process listener, so the
    // backoff schedule — the part that turns a hot loop into a bounded
    // retry — is pinned directly.
    #[test]
    fn accept_backoff_starts_small_doubles_and_caps() {
        let first = next_accept_backoff(None);
        assert_eq!(first, ACCEPT_BACKOFF_MIN);
        let mut d = first;
        let mut steps = 0;
        while d < ACCEPT_BACKOFF_MAX {
            let next = next_accept_backoff(Some(d));
            assert_eq!(next, (d * 2).min(ACCEPT_BACKOFF_MAX));
            d = next;
            steps += 1;
            assert!(steps < 64, "backoff never reached its ceiling");
        }
        assert_eq!(d, ACCEPT_BACKOFF_MAX);
        // Saturated: further errors stay at the ceiling.
        assert_eq!(next_accept_backoff(Some(d)), ACCEPT_BACKOFF_MAX);
    }

    #[test]
    fn accept_backoff_resets_by_passing_none() {
        let saturated = next_accept_backoff(Some(ACCEPT_BACKOFF_MAX));
        assert_eq!(saturated, ACCEPT_BACKOFF_MAX);
        assert_eq!(next_accept_backoff(None), ACCEPT_BACKOFF_MIN);
    }
}

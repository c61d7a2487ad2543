//! The `sca-serve` wire protocol: newline-delimited JSON frames.
//!
//! Every request and every response is one JSON object on one line
//! (NDJSON), so any language with a socket and a JSON parser can talk to
//! the server, and transcripts can be replayed with `nc`. Requests carry
//! a `"cmd"` discriminator; responses carry `"ok"`, a server-assigned
//! `trace_id`, and either the result fields or an `"error"` object with
//! a machine-readable `kind`:
//!
//! ```text
//! -> {"cmd":"classify","name":"fr","program":"  mov r1, 7\n  halt\n","victim":"shared:3"}
//! <- {"ok":true,"trace_id":7,"repo":{"generation":1,"entries":4},"detection":{...}}
//! -> {"cmd":"stats"}
//! <- {"ok":true,"trace_id":8,"stats":{"received":2,"completed":1,...}}
//! -> nonsense
//! <- {"ok":false,"trace_id":9,"error":{"kind":"bad_request","message":"invalid JSON frame: ..."}}
//! ```
//!
//! Malformed frames always get a structured `bad_request` error instead
//! of a dropped connection; the connection stays usable for the next
//! frame. The `detection` object of a `classify` response is rendered by
//! [`scaguard::detection_json`] — byte-identical to what the offline
//! `scaguard classify --json` prints for the same target. The trace id
//! and the optional `timings` object (requested by putting
//! `"timings":true` in any work frame's envelope) live *next to* the
//! `detection`, never inside it, so the byte-identity holds with
//! observability on.
//!
//! Two envelope-level extensions amortize per-frame overhead:
//!
//! - **Pipelined frames.** A work request tagged with an `"id"` (any
//!   non-null JSON value, echoed back verbatim — see [`request_id`])
//!   does not block the connection: the client may keep sending,
//!   several requests stay in flight at once, and their responses carry
//!   the same `id` and may arrive **out of order**. Untagged requests
//!   keep the strict one-in-one-out ordering.
//! - **`classify-batch`.** Many programs in one frame:
//!   `{"cmd":"classify-batch","programs":[{"name":...,"program":...,
//!   "victim":...,"threshold":...},...]}`. The response's `results`
//!   array holds one entry per program **in submission order**, each
//!   either `{"detection":{...}}` or `{"error":{"kind":...,
//!   "message":...}}` — one program's failure never fails its siblings,
//!   while the model build and repository scan fan-out are shared.
//!
//! **Watch streams** turn a connection into an online detection session
//! (DESIGN.md §17). `{"cmd":"watch",...}` answers with an ack naming a
//! `stream` id; each `{"cmd":"watch-push","stream":N}` then commits
//! increments of the program's execution and the server pushes one or
//! more *event* frames back — `progress` per increment, `alarm` the
//! moment the early-alarm policy fires, `done` when the trace ends (or
//! on `{"cmd":"watch-finish","stream":N}`). Every event carries the
//! triggering frame's `trace_id` (and `id`, when tagged), names its
//! `stream`, and the final event of each push is marked `"last":true`
//! so a client knows when to stop reading. Streams are per-connection:
//! a stream id is only routable on the connection that opened it, and
//! tearing the connection down tears its streams down with it. A push
//! the full admission queue refuses is answered with one `overloaded`
//! error event (naming the stream, marked `last`); the stream stays
//! open and the push may be retried.

use std::fmt;
use std::io::{self, BufRead, Write};

use sca_cpu::Victim;
use sca_telemetry::Json;

/// Protocol version reported by `ping`. Version 2 dropped the
/// per-entry `scores` array from detections; version 3 dropped the
/// repository shards (`stats.shards`, `timings.shards` and the
/// `serve.shards` / `serve.shard{i}.*` gauges); version 4 dropped
/// `stats.spawn_errors`, and `watch-push`, `watch-finish` and
/// `reload-repo` can now be answered `overloaded` when the admission
/// queue is full.
pub const PROTOCOL_VERSION: u64 = 4;

/// Base address of the shared victim region (matches the CLI).
pub const SHARED_BASE: u64 = 0x1000_0000;
/// Base address of the set-conflict victim region (matches the CLI).
pub const CONFLICT_BASE: u64 = 0x5000_0000;
/// Cache-line size victims are laid out on.
pub const CACHE_LINE: u64 = 64;

/// The error taxonomy shared by the server, the client, and the wire
/// format: every `{"ok":false}` frame carries exactly one of these as
/// its `error.kind`.
///
/// The taxonomy encodes the one retry-safety fact a client needs: an
/// error is **retryable** only when the server guarantees the request
/// was *never admitted* — retrying anything else risks duplicate work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The frame was unparseable, oversized, or semantically invalid
    /// (unknown command, bad victim spec, out-of-range threshold,
    /// assembly failure). The request never ran.
    BadRequest,
    /// The admission queue was full; the request was shed before any
    /// work happened. The only retryable kind.
    Overloaded,
    /// The request's deadline passed while queued or mid-scan.
    DeadlineExceeded,
    /// The modeling pipeline failed on an admitted request.
    ModelError,
    /// A `reload-repo` failed; the previous repository stays live.
    ReloadFailed,
    /// The server is draining and refused new work.
    ShuttingDown,
    /// A worker panicked while serving the request. The request may
    /// have had partial effect on caches (never on results), so it is
    /// not retryable automatically.
    InternalError,
}

impl ErrorKind {
    /// Every kind, for exhaustive tests.
    pub const ALL: [ErrorKind; 7] = [
        ErrorKind::BadRequest,
        ErrorKind::Overloaded,
        ErrorKind::DeadlineExceeded,
        ErrorKind::ModelError,
        ErrorKind::ReloadFailed,
        ErrorKind::ShuttingDown,
        ErrorKind::InternalError,
    ];

    /// The wire spelling of this kind.
    pub const fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::ModelError => "model_error",
            ErrorKind::ReloadFailed => "reload_failed",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::InternalError => "internal_error",
        }
    }

    /// Parse a wire spelling.
    pub fn parse(s: &str) -> Option<ErrorKind> {
        ErrorKind::ALL.into_iter().find(|k| k.as_str() == s)
    }

    /// Whether a client may safely retry a request answered with this
    /// kind: true only when admission provably never happened, so a
    /// retry can never duplicate work.
    pub const fn is_retryable(self) -> bool {
        matches!(self, ErrorKind::Overloaded)
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// `kind` of the error returned for unparseable or invalid frames.
pub const KIND_BAD_REQUEST: &str = ErrorKind::BadRequest.as_str();
/// `kind` of the error returned when the admission queue is full.
pub const KIND_OVERLOADED: &str = ErrorKind::Overloaded.as_str();
/// `kind` of the error returned when a request's deadline passes.
pub const KIND_DEADLINE_EXCEEDED: &str = ErrorKind::DeadlineExceeded.as_str();
/// `kind` of the error returned when the modeling pipeline fails.
pub const KIND_MODEL_ERROR: &str = ErrorKind::ModelError.as_str();
/// `kind` of the error returned when a repository reload fails.
pub const KIND_RELOAD_FAILED: &str = ErrorKind::ReloadFailed.as_str();
/// `kind` of the error returned for work submitted during shutdown.
pub const KIND_SHUTTING_DOWN: &str = ErrorKind::ShuttingDown.as_str();
/// `kind` of the error returned when a worker panics serving a request.
pub const KIND_INTERNAL_ERROR: &str = ErrorKind::InternalError.as_str();

/// Hard cap on one frame's length in bytes (newline excluded).
///
/// `read_line` on an attacker-fed socket would otherwise buffer an
/// endless `\n`-less line until the process dies of memory exhaustion;
/// every reader in this crate goes through [`read_frame_limited`],
/// which refuses past this limit. 1 MiB comfortably fits the largest
/// legitimate frame (a full assembly program plus the JSON envelope).
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Parse a victim spec (`none`, `shared:<secret>`, `conflict:<secret>`)
/// into a [`Victim`] — the same mapping the CLI uses, so a spec means
/// the same thing over the wire and on the command line.
///
/// # Errors
///
/// Returns a description of the malformed spec.
pub fn parse_victim(spec: &str) -> Result<Victim, String> {
    if spec == "none" {
        return Ok(Victim::None);
    }
    let (kind, secret) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad victim spec `{spec}` (expected kind:secret)"))?;
    let secret: u64 = secret
        .parse()
        .map_err(|e| format!("bad victim secret `{secret}`: {e}"))?;
    match kind {
        "shared" => Ok(Victim::shared_memory(SHARED_BASE, CACHE_LINE, vec![secret])),
        "conflict" => Ok(Victim::set_conflict(
            CONFLICT_BASE,
            CACHE_LINE,
            vec![secret],
        )),
        other => Err(format!("unknown victim kind `{other}`")),
    }
}

/// Hard cap on the number of programs in one `classify-batch` frame.
///
/// A batch is admitted as *one* queue slot, so an unbounded `programs`
/// array would let a single frame monopolize a worker indefinitely; the
/// cap keeps the shed/deadline math of the bounded queue meaningful.
pub const MAX_BATCH_PROGRAMS: usize = 1024;

/// One program inside a [`Request::ClassifyBatch`] frame: the
/// per-program subset of [`Request::Classify`]'s fields (deadline and
/// debug hooks are per-frame, not per-program).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchProgram {
    /// Program name (reported back in its detection).
    pub name: String,
    /// The program's assembly source.
    pub program: String,
    /// Victim spec (see [`parse_victim`]).
    pub victim: String,
    /// Per-program threshold override.
    pub threshold: Option<f64>,
}

/// One request frame, parsed.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Classify an assembly program against the loaded repository.
    Classify {
        /// Program name (reported back in the detection).
        name: String,
        /// The program's assembly source.
        program: String,
        /// Victim spec (see [`parse_victim`]).
        victim: String,
        /// Per-request threshold override.
        threshold: Option<f64>,
        /// Per-request deadline in milliseconds (overrides the server
        /// default).
        deadline_ms: Option<u64>,
        /// Load-generator hook: sleep this long on the worker before
        /// doing any work. Used by tests and the bench to create
        /// controlled backlogs; zero in production traffic.
        debug_sleep_ms: u64,
        /// Fault-injection hook: panic on the worker instead of doing
        /// the work. Used by the chaos harness to prove panic isolation
        /// (structured `internal_error`, pool stays at full strength);
        /// false in production traffic.
        debug_panic: bool,
    },
    /// Classify many programs in one frame: one model build + scan
    /// fan-out per program, results returned in submission order.
    ClassifyBatch {
        /// The programs, classified independently and answered in this
        /// order; at most [`MAX_BATCH_PROGRAMS`].
        programs: Vec<BatchProgram>,
        /// Per-frame deadline in milliseconds, covering the whole batch.
        deadline_ms: Option<u64>,
        /// Load-generator hook, as in [`Request::Classify`]; applied
        /// once per frame, not per program.
        debug_sleep_ms: u64,
    },
    /// Build and return a program's CST-BBS model (canonical text form).
    Model {
        /// Program name.
        name: String,
        /// The program's assembly source.
        program: String,
        /// Victim spec.
        victim: String,
        /// Per-request deadline in milliseconds.
        deadline_ms: Option<u64>,
        /// Load-generator hook, as in [`Request::Classify`].
        debug_sleep_ms: u64,
    },
    /// Open a long-lived watch stream on this connection: run `program`
    /// incrementally, score every committed prefix against the loaded
    /// repository, and push `progress`/`alarm`/`done` events as
    /// `watch-push` frames drive it forward (module docs).
    Watch {
        /// Program name (reported back in the final detection).
        name: String,
        /// The program's assembly source.
        program: String,
        /// Victim spec (see [`parse_victim`]).
        victim: String,
        /// Instructions committed per increment (server default when
        /// absent).
        increment: Option<u64>,
        /// Early-alarm threshold τ override (see
        /// `scaguard::StreamConfig`).
        threshold: Option<f64>,
        /// Sustain count k override: consecutive increments at or above
        /// τ before the alarm fires.
        sustain: Option<u64>,
        /// Per-push deadline in milliseconds (overrides the server
        /// default). A deadline miss ends the push, not the stream.
        deadline_ms: Option<u64>,
    },
    /// Advance an open watch stream by whole increments. Answered only
    /// with pushed events (one `progress` per increment, plus `alarm` /
    /// `done` as they happen), never with an inline response.
    WatchPush {
        /// The stream id from the `watch` ack.
        stream: u64,
        /// How many increments to commit (at least 1).
        increments: u64,
    },
    /// Close an open watch stream: the final `done` event carries the
    /// current prefix's full detection.
    WatchFinish {
        /// The stream id from the `watch` ack.
        stream: u64,
    },
    /// Atomically swap in a repository from disk (the server's own path
    /// when `path` is `None`).
    ReloadRepo {
        /// Path to load; defaults to the currently loaded file.
        path: Option<String>,
    },
    /// Server statistics.
    Stats,
    /// Full telemetry snapshot: counters, gauges, and histogram
    /// summaries (p50/p90/p99/max).
    Metrics,
    /// The flight recorder's resident request summaries.
    Flight,
    /// Liveness / version probe.
    Ping,
    /// Stop accepting work and exit.
    Shutdown,
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer field `{key}`"))
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(j) => j
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
    }
}

fn opt_bool(v: &Json, key: &str) -> Result<bool, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("field `{key}` must be a boolean")),
    }
}

fn opt_f64(v: &Json, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(j) => j
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a number")),
    }
}

impl Request {
    /// Parse one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of what is malformed; the
    /// server wraps it in a [`KIND_BAD_REQUEST`] error frame.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| format!("invalid JSON frame: {e}"))?;
        Request::from_json(&v)
    }

    /// Parse an already-decoded request frame. Envelope-level flags that
    /// are not part of the request itself (`timings`) are read separately
    /// with [`request_wants_timings`].
    ///
    /// # Errors
    ///
    /// As [`Request::parse`].
    pub fn from_json(v: &Json) -> Result<Request, String> {
        let cmd = req_str(v, "cmd")?;
        match cmd.as_str() {
            "classify" => Ok(Request::Classify {
                name: req_str(v, "name").unwrap_or_else(|_| "program".into()),
                program: req_str(v, "program")?,
                victim: req_str(v, "victim").unwrap_or_else(|_| "none".into()),
                threshold: opt_f64(v, "threshold")?,
                deadline_ms: opt_u64(v, "deadline_ms")?,
                debug_sleep_ms: opt_u64(v, "debug_sleep_ms")?.unwrap_or(0),
                debug_panic: opt_bool(v, "debug_panic")?,
            }),
            "classify-batch" => {
                let Some(Json::Arr(items)) = v.get("programs") else {
                    return Err("field `programs` must be an array".into());
                };
                if items.len() > MAX_BATCH_PROGRAMS {
                    return Err(format!(
                        "batch of {} programs exceeds the {MAX_BATCH_PROGRAMS}-program cap",
                        items.len()
                    ));
                }
                let programs = items
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        Ok(BatchProgram {
                            name: req_str(p, "name").unwrap_or_else(|_| format!("program{i}")),
                            program: req_str(p, "program")
                                .map_err(|e| format!("programs[{i}]: {e}"))?,
                            victim: req_str(p, "victim").unwrap_or_else(|_| "none".into()),
                            threshold: opt_f64(p, "threshold")
                                .map_err(|e| format!("programs[{i}]: {e}"))?,
                        })
                    })
                    .collect::<Result<Vec<BatchProgram>, String>>()?;
                Ok(Request::ClassifyBatch {
                    programs,
                    deadline_ms: opt_u64(v, "deadline_ms")?,
                    debug_sleep_ms: opt_u64(v, "debug_sleep_ms")?.unwrap_or(0),
                })
            }
            "model" => Ok(Request::Model {
                name: req_str(v, "name").unwrap_or_else(|_| "program".into()),
                program: req_str(v, "program")?,
                victim: req_str(v, "victim").unwrap_or_else(|_| "none".into()),
                deadline_ms: opt_u64(v, "deadline_ms")?,
                debug_sleep_ms: opt_u64(v, "debug_sleep_ms")?.unwrap_or(0),
            }),
            "watch" => Ok(Request::Watch {
                name: req_str(v, "name").unwrap_or_else(|_| "program".into()),
                program: req_str(v, "program")?,
                victim: req_str(v, "victim").unwrap_or_else(|_| "none".into()),
                increment: opt_u64(v, "increment")?,
                threshold: opt_f64(v, "threshold")?,
                sustain: opt_u64(v, "sustain")?,
                deadline_ms: opt_u64(v, "deadline_ms")?,
            }),
            "watch-push" => Ok(Request::WatchPush {
                stream: req_u64(v, "stream")?,
                increments: opt_u64(v, "increments")?.unwrap_or(1),
            }),
            "watch-finish" => Ok(Request::WatchFinish {
                stream: req_u64(v, "stream")?,
            }),
            "reload-repo" => Ok(Request::ReloadRepo {
                path: v.get("path").and_then(Json::as_str).map(str::to_string),
            }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "flight" => Ok(Request::Flight),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown cmd `{other}`")),
        }
    }

    /// Render the request as its wire frame (the client side of
    /// [`Request::parse`]).
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = Vec::new();
        let push_opt_u64 = |fields: &mut Vec<(String, Json)>, k: &str, v: Option<u64>| {
            if let Some(v) = v {
                fields.push((k.into(), Json::Num(v as f64)));
            }
        };
        match self {
            Request::Classify {
                name,
                program,
                victim,
                threshold,
                deadline_ms,
                debug_sleep_ms,
                debug_panic,
            } => {
                fields.push(("cmd".into(), Json::Str("classify".into())));
                fields.push(("name".into(), Json::Str(name.clone())));
                fields.push(("program".into(), Json::Str(program.clone())));
                fields.push(("victim".into(), Json::Str(victim.clone())));
                if let Some(t) = threshold {
                    fields.push(("threshold".into(), Json::Num(*t)));
                }
                push_opt_u64(&mut fields, "deadline_ms", *deadline_ms);
                if *debug_sleep_ms > 0 {
                    push_opt_u64(&mut fields, "debug_sleep_ms", Some(*debug_sleep_ms));
                }
                if *debug_panic {
                    fields.push(("debug_panic".into(), Json::Bool(true)));
                }
            }
            Request::ClassifyBatch {
                programs,
                deadline_ms,
                debug_sleep_ms,
            } => {
                fields.push(("cmd".into(), Json::Str("classify-batch".into())));
                let items = programs
                    .iter()
                    .map(|p| {
                        let mut f = vec![
                            ("name".to_string(), Json::Str(p.name.clone())),
                            ("program".to_string(), Json::Str(p.program.clone())),
                            ("victim".to_string(), Json::Str(p.victim.clone())),
                        ];
                        if let Some(t) = p.threshold {
                            f.push(("threshold".into(), Json::Num(t)));
                        }
                        Json::Obj(f)
                    })
                    .collect();
                fields.push(("programs".into(), Json::Arr(items)));
                push_opt_u64(&mut fields, "deadline_ms", *deadline_ms);
                if *debug_sleep_ms > 0 {
                    push_opt_u64(&mut fields, "debug_sleep_ms", Some(*debug_sleep_ms));
                }
            }
            Request::Model {
                name,
                program,
                victim,
                deadline_ms,
                debug_sleep_ms,
            } => {
                fields.push(("cmd".into(), Json::Str("model".into())));
                fields.push(("name".into(), Json::Str(name.clone())));
                fields.push(("program".into(), Json::Str(program.clone())));
                fields.push(("victim".into(), Json::Str(victim.clone())));
                push_opt_u64(&mut fields, "deadline_ms", *deadline_ms);
                if *debug_sleep_ms > 0 {
                    push_opt_u64(&mut fields, "debug_sleep_ms", Some(*debug_sleep_ms));
                }
            }
            Request::Watch {
                name,
                program,
                victim,
                increment,
                threshold,
                sustain,
                deadline_ms,
            } => {
                fields.push(("cmd".into(), Json::Str("watch".into())));
                fields.push(("name".into(), Json::Str(name.clone())));
                fields.push(("program".into(), Json::Str(program.clone())));
                fields.push(("victim".into(), Json::Str(victim.clone())));
                push_opt_u64(&mut fields, "increment", *increment);
                if let Some(t) = threshold {
                    fields.push(("threshold".into(), Json::Num(*t)));
                }
                push_opt_u64(&mut fields, "sustain", *sustain);
                push_opt_u64(&mut fields, "deadline_ms", *deadline_ms);
            }
            Request::WatchPush { stream, increments } => {
                fields.push(("cmd".into(), Json::Str("watch-push".into())));
                fields.push(("stream".into(), Json::Num(*stream as f64)));
                if *increments != 1 {
                    push_opt_u64(&mut fields, "increments", Some(*increments));
                }
            }
            Request::WatchFinish { stream } => {
                fields.push(("cmd".into(), Json::Str("watch-finish".into())));
                fields.push(("stream".into(), Json::Num(*stream as f64)));
            }
            Request::ReloadRepo { path } => {
                fields.push(("cmd".into(), Json::Str("reload-repo".into())));
                if let Some(p) = path {
                    fields.push(("path".into(), Json::Str(p.clone())));
                }
            }
            Request::Stats => fields.push(("cmd".into(), Json::Str("stats".into()))),
            Request::Metrics => fields.push(("cmd".into(), Json::Str("metrics".into()))),
            Request::Flight => fields.push(("cmd".into(), Json::Str("flight".into()))),
            Request::Ping => fields.push(("cmd".into(), Json::Str("ping".into()))),
            Request::Shutdown => fields.push(("cmd".into(), Json::Str("shutdown".into()))),
        }
        Json::Obj(fields)
    }
}

/// Whether a request frame asks for a stage-timing breakdown in its
/// response (`"timings": true` in the envelope). Kept outside
/// [`Request`] so the flag composes with every work command without
/// changing the request structs.
pub fn request_wants_timings(v: &Json) -> bool {
    v.get("timings") == Some(&Json::Bool(true))
}

/// `frame` with `request.to_json()`'s fields plus `"timings": true`, the
/// client side of [`request_wants_timings`].
pub fn with_timings_flag(request: &Request) -> Json {
    match request.to_json() {
        Json::Obj(mut fields) => {
            fields.push(("timings".into(), Json::Bool(true)));
            Json::Obj(fields)
        }
        other => other,
    }
}

/// The pipelining tag of a frame: the envelope-level `"id"` value, if
/// present and non-null.
///
/// Like the `timings` flag, the tag lives *outside* [`Request`]: it
/// composes with every command without changing the request structs. A
/// tagged work request is served pipelined (the connection keeps
/// reading; responses may come back out of order, carrying the same
/// `id`), so the tag is read off both requests (by the server) and
/// responses (by the client reassembling in submission order). Any JSON
/// value works as a tag and is echoed back verbatim.
pub fn request_id(frame: &Json) -> Option<Json> {
    frame
        .get("id")
        .filter(|id| !matches!(id, Json::Null))
        .cloned()
}

/// `frame` with the pipelining tag `id` inserted right after the leading
/// `"ok"` field — the response-side mirror of [`request_id`]. Used by
/// clients on requests too (position is cosmetic there).
pub fn with_request_id(frame: Json, id: &Json) -> Json {
    let tag = ("id".to_string(), id.clone());
    match frame {
        Json::Obj(mut fields) => {
            let at = usize::from(fields.first().is_some_and(|(k, _)| k == "ok"));
            fields.insert(at, tag);
            Json::Obj(fields)
        }
        other => Json::Obj(vec![tag, ("frame".into(), other)]),
    }
}

/// `frame` with the server-assigned trace id inserted right after the
/// leading `"ok"` field (or prepended if the frame is not an object).
pub fn with_trace_id(frame: Json, trace_id: u64) -> Json {
    let id = ("trace_id".to_string(), Json::Num(trace_id as f64));
    match frame {
        Json::Obj(mut fields) => {
            let at = usize::from(fields.first().is_some_and(|(k, _)| k == "ok"));
            fields.insert(at, id);
            Json::Obj(fields)
        }
        other => Json::Obj(vec![id, ("frame".into(), other)]),
    }
}

/// The server-assigned trace id of a response frame, if present.
pub fn trace_id(frame: &Json) -> Option<u64> {
    frame.get("trace_id").and_then(Json::as_u64)
}

/// The `timings` object of a response frame, if present.
pub fn timings(frame: &Json) -> Option<&Json> {
    frame.get("timings")
}

/// A `{"ok":false,"error":{"kind":...,"message":...}}` frame.
pub fn error_frame(kind: &str, message: &str) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        (
            "error".into(),
            Json::Obj(vec![
                ("kind".into(), Json::Str(kind.into())),
                ("message".into(), Json::Str(message.into())),
            ]),
        ),
    ])
}

/// A `{"ok":true, ...fields}` frame.
pub fn ok_frame(fields: Vec<(String, Json)>) -> Json {
    let mut obj = vec![("ok".into(), Json::Bool(true))];
    obj.extend(fields);
    Json::Obj(obj)
}

/// The `kind` of an error frame, if `frame` is one.
pub fn error_kind(frame: &Json) -> Option<&str> {
    if frame.get("ok") == Some(&Json::Bool(false)) {
        frame.get("error")?.get("kind")?.as_str()
    } else {
        None
    }
}

/// Whether `frame` reports success.
pub fn is_ok(frame: &Json) -> bool {
    frame.get("ok") == Some(&Json::Bool(true))
}

/// Failure to read one frame off the transport.
#[derive(Debug)]
pub enum FrameReadError {
    /// The underlying reader failed (includes socket read timeouts,
    /// surfaced as [`io::ErrorKind::WouldBlock`] / `TimedOut`).
    Io(io::Error),
    /// The peer sent more than `limit` bytes without a newline. The
    /// stream is mid-frame and cannot be resynchronized; the caller
    /// should report the limit and close the connection.
    TooLong {
        /// The configured frame cap that was exceeded.
        limit: usize,
    },
}

impl FrameReadError {
    /// Whether this is a socket read timeout (idle or stalled peer).
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameReadError::Io(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
        )
    }
}

impl fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameReadError::Io(e) => write!(f, "transport error: {e}"),
            FrameReadError::TooLong { limit } => {
                write!(f, "frame exceeds the {limit}-byte limit")
            }
        }
    }
}

impl std::error::Error for FrameReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameReadError::Io(e) => Some(e),
            FrameReadError::TooLong { .. } => None,
        }
    }
}

impl From<io::Error> for FrameReadError {
    fn from(e: io::Error) -> FrameReadError {
        FrameReadError::Io(e)
    }
}

impl From<FrameReadError> for io::Error {
    fn from(e: FrameReadError) -> io::Error {
        match e {
            FrameReadError::Io(e) => e,
            e @ FrameReadError::TooLong { .. } => {
                io::Error::new(io::ErrorKind::InvalidData, e.to_string())
            }
        }
    }
}

/// Read one newline-terminated frame; `None` at end of stream.
///
/// Equivalent to [`read_frame_limited`] at [`MAX_FRAME_LEN`].
///
/// # Errors
///
/// Propagates transport errors; rejects frames over [`MAX_FRAME_LEN`].
pub fn read_frame(r: &mut impl BufRead) -> Result<Option<String>, FrameReadError> {
    read_frame_limited(r, MAX_FRAME_LEN)
}

/// Read one newline-terminated frame of at most `limit` bytes; `None`
/// at end of stream.
///
/// Unlike `BufRead::read_line`, this never buffers more than `limit`
/// bytes no matter how long the peer keeps streaming without a newline
/// — the unbounded `read_line` was a remote memory-exhaustion vector.
/// Bytes that are not valid UTF-8 are replaced (U+FFFD) rather than
/// failing the transport: a garbled frame then fails JSON parsing and
/// gets a structured `bad_request`, keeping the connection usable.
///
/// # Errors
///
/// [`FrameReadError::TooLong`] once more than `limit` bytes arrive with
/// no newline (the stream cannot be resynchronized afterwards);
/// [`FrameReadError::Io`] on transport errors, including read timeouts.
pub fn read_frame_limited(
    r: &mut impl BufRead,
    limit: usize,
) -> Result<Option<String>, FrameReadError> {
    let mut frame: Vec<u8> = Vec::new();
    loop {
        let chunk = match r.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameReadError::Io(e)),
        };
        if chunk.is_empty() {
            // EOF: a final unterminated line is still a frame, matching
            // `read_line`; nothing buffered means end of stream.
            if frame.is_empty() {
                return Ok(None);
            }
            break;
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if frame.len() + pos > limit {
                    return Err(FrameReadError::TooLong { limit });
                }
                frame.extend_from_slice(&chunk[..pos]);
                r.consume(pos + 1);
                break;
            }
            None => {
                let n = chunk.len();
                if frame.len() + n > limit {
                    return Err(FrameReadError::TooLong { limit });
                }
                frame.extend_from_slice(chunk);
                r.consume(n);
            }
        }
    }
    while frame.last() == Some(&b'\r') {
        frame.pop();
    }
    Ok(Some(String::from_utf8_lossy(&frame).into_owned()))
}

/// Write one frame followed by a newline and flush.
///
/// # Errors
///
/// Propagates transport errors from the writer.
pub fn write_frame(w: &mut impl Write, frame: &Json) -> io::Result<()> {
    // Render the whole frame first: formatting straight into an
    // unbuffered socket turns every `Display` fragment into a syscall
    // (and with TCP_NODELAY, potentially a packet).
    let mut line = frame.to_string();
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// A complete or still-arriving line exceeded the frame limit; the
/// stream cannot be resynchronized mid-frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLong {
    /// The limit that was exceeded, for the error message.
    pub limit: usize,
}

/// Incremental frame assembly for nonblocking reads.
///
/// [`read_frame_limited`] pulls bytes from a blocking `BufRead` until a
/// frame completes; a reactor cannot block, so it [`feed`]s whatever a
/// nonblocking read returned and pops complete frames as they form.
/// The two are semantically identical — same limit rule (a line longer
/// than `limit` bytes, terminated or not, is [`FrameTooLong`]; exactly
/// `limit` is fine), same trailing-`\r` stripping, same lossy UTF-8
/// decode, and the same EOF rule (a final unterminated line is still a
/// frame) — which is what keeps every PR-5 framing guarantee intact
/// under the event-driven connection layer.
///
/// [`feed`]: FrameAssembler::feed
#[derive(Debug)]
pub struct FrameAssembler {
    limit: usize,
    buf: Vec<u8>,
    /// Prefix of `buf` already scanned and known newline-free, so a
    /// slowly arriving frame is not rescanned from the start on every
    /// sweep.
    scanned: usize,
    eof: bool,
}

impl FrameAssembler {
    /// An empty assembler enforcing `limit` bytes per frame.
    pub fn new(limit: usize) -> FrameAssembler {
        FrameAssembler {
            limit,
            buf: Vec::new(),
            scanned: 0,
            eof: false,
        }
    }

    /// Append bytes read off the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Mark end of stream: the next [`FrameAssembler::next_frame`] call
    /// hands out a final unterminated line, if one is buffered.
    pub fn set_eof(&mut self) {
        self.eof = true;
    }

    /// Whether bytes of an incomplete frame are buffered — the
    /// mid-frame-stall half of the io-timeout split keys off this.
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether no frame can ever be produced again: end of stream seen
    /// and nothing buffered.
    pub fn is_drained(&self) -> bool {
        self.eof && self.buf.is_empty()
    }

    /// Pop the next complete frame, `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// [`FrameTooLong`] under exactly the conditions
    /// [`read_frame_limited`] errors: a terminated line longer than the
    /// limit, or more than `limit` bytes buffered with no newline yet.
    pub fn next_frame(&mut self) -> Result<Option<String>, FrameTooLong> {
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(rel) => {
                let pos = self.scanned + rel;
                if pos > self.limit {
                    return Err(FrameTooLong { limit: self.limit });
                }
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop();
                self.scanned = 0;
                while line.last() == Some(&b'\r') {
                    line.pop();
                }
                Ok(Some(String::from_utf8_lossy(&line).into_owned()))
            }
            None => {
                self.scanned = self.buf.len();
                if self.buf.len() > self.limit {
                    return Err(FrameTooLong { limit: self.limit });
                }
                if self.eof && !self.buf.is_empty() {
                    let mut line = std::mem::take(&mut self.buf);
                    self.scanned = 0;
                    while line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    Ok(Some(String::from_utf8_lossy(&line).into_owned()))
                } else {
                    Ok(None)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_round_trips_through_the_wire_format() {
        let req = Request::Classify {
            name: "fr-mastik".into(),
            program: "  mov r1, 7\n  halt\n".into(),
            victim: "shared:3".into(),
            threshold: Some(0.25),
            deadline_ms: Some(500),
            debug_sleep_ms: 10,
            debug_panic: true,
        };
        let line = req.to_json().to_string();
        assert_eq!(Request::parse(&line), Ok(req));
    }

    #[test]
    fn every_control_request_round_trips() {
        for req in [
            Request::Stats,
            Request::Metrics,
            Request::Flight,
            Request::Ping,
            Request::Shutdown,
            Request::ReloadRepo { path: None },
            Request::ReloadRepo {
                path: Some("/tmp/x.repo".into()),
            },
            Request::Model {
                name: "m".into(),
                program: "  halt\n".into(),
                victim: "none".into(),
                deadline_ms: None,
                debug_sleep_ms: 0,
            },
        ] {
            let line = req.to_json().to_string();
            assert_eq!(Request::parse(&line), Ok(req));
        }
    }

    #[test]
    fn watch_requests_round_trip() {
        for req in [
            Request::Watch {
                name: "fr".into(),
                program: "  mov r1, 7\n  halt\n".into(),
                victim: "shared:3".into(),
                increment: Some(32),
                threshold: Some(0.4),
                sustain: Some(3),
                deadline_ms: Some(250),
            },
            Request::Watch {
                name: "program".into(),
                program: "  halt\n".into(),
                victim: "none".into(),
                increment: None,
                threshold: None,
                sustain: None,
                deadline_ms: None,
            },
            Request::WatchPush {
                stream: 7,
                increments: 1,
            },
            Request::WatchPush {
                stream: 7,
                increments: 64,
            },
            Request::WatchFinish { stream: 7 },
        ] {
            let line = req.to_json().to_string();
            assert_eq!(Request::parse(&line), Ok(req));
        }
    }

    #[test]
    fn watch_push_requires_a_stream_id() {
        assert!(Request::parse("{\"cmd\":\"watch-push\"}")
            .unwrap_err()
            .contains("`stream`"));
        assert!(Request::parse("{\"cmd\":\"watch-finish\"}")
            .unwrap_err()
            .contains("`stream`"));
    }

    #[test]
    fn malformed_frames_are_described() {
        assert!(Request::parse("not json")
            .unwrap_err()
            .contains("invalid JSON"));
        assert!(Request::parse("{}").unwrap_err().contains("`cmd`"));
        assert!(Request::parse("{\"cmd\":\"nope\"}")
            .unwrap_err()
            .contains("unknown cmd"));
        assert!(Request::parse("{\"cmd\":\"classify\"}")
            .unwrap_err()
            .contains("`program`"));
        assert!(
            Request::parse("{\"cmd\":\"classify\",\"program\":\"x\",\"deadline_ms\":-4}")
                .unwrap_err()
                .contains("deadline_ms")
        );
    }

    #[test]
    fn victim_specs_parse_like_the_cli() {
        assert!(matches!(parse_victim("none"), Ok(Victim::None)));
        assert!(parse_victim("shared:3").is_ok());
        assert!(parse_victim("conflict:7").is_ok());
        assert!(parse_victim("wat").is_err());
        assert!(parse_victim("shared:x").is_err());
    }

    #[test]
    fn frames_helpers() {
        let err = error_frame(KIND_OVERLOADED, "queue full");
        assert!(!is_ok(&err));
        assert_eq!(error_kind(&err), Some(KIND_OVERLOADED));
        let ok = ok_frame(vec![("pong".into(), Json::Bool(true))]);
        assert!(is_ok(&ok));
        assert_eq!(error_kind(&ok), None);
    }

    #[test]
    fn trace_id_lands_right_after_ok_on_every_frame_shape() {
        let ok = with_trace_id(ok_frame(vec![("pong".into(), Json::Bool(true))]), 42);
        assert_eq!(trace_id(&ok), Some(42));
        assert_eq!(
            ok.to_string(),
            "{\"ok\":true,\"trace_id\":42,\"pong\":true}",
            "trace_id must follow the leading ok field"
        );
        let err = with_trace_id(error_frame(KIND_BAD_REQUEST, "nope"), 7);
        assert_eq!(trace_id(&err), Some(7));
        assert!(!is_ok(&err));
        assert_eq!(error_kind(&err), Some(KIND_BAD_REQUEST));
    }

    #[test]
    fn timings_flag_rides_the_envelope_not_the_request() {
        let req = Request::Classify {
            name: "fr".into(),
            program: "  halt\n".into(),
            victim: "none".into(),
            threshold: None,
            deadline_ms: None,
            debug_sleep_ms: 0,
            debug_panic: false,
        };
        let plain = req.to_json();
        assert!(!request_wants_timings(&plain));
        let flagged = with_timings_flag(&req);
        assert!(request_wants_timings(&flagged));
        // The flag is invisible to request parsing: both decode equally.
        assert_eq!(
            Request::parse(&flagged.to_string()),
            Request::parse(&plain.to_string())
        );
    }

    #[test]
    fn classify_batch_round_trips_and_enforces_the_cap() {
        let req = Request::ClassifyBatch {
            programs: vec![
                BatchProgram {
                    name: "a".into(),
                    program: "  halt\n".into(),
                    victim: "none".into(),
                    threshold: None,
                },
                BatchProgram {
                    name: "b".into(),
                    program: "  mov r1, 7\n  halt\n".into(),
                    victim: "shared:3".into(),
                    threshold: Some(0.3),
                },
            ],
            deadline_ms: Some(750),
            debug_sleep_ms: 0,
        };
        let line = req.to_json().to_string();
        assert_eq!(Request::parse(&line), Ok(req));
        // Defaults mirror `classify`: name and victim are optional.
        let got = Request::parse(r#"{"cmd":"classify-batch","programs":[{"program":"x"}]}"#)
            .expect("parse");
        let Request::ClassifyBatch { programs, .. } = got else {
            panic!("wrong variant");
        };
        assert_eq!(programs[0].name, "program0");
        assert_eq!(programs[0].victim, "none");
        // Malformed batches are described, never panicked on.
        assert!(Request::parse(r#"{"cmd":"classify-batch"}"#)
            .unwrap_err()
            .contains("`programs`"));
        assert!(
            Request::parse(r#"{"cmd":"classify-batch","programs":[{}]}"#)
                .unwrap_err()
                .contains("programs[0]")
        );
        let oversized = Request::ClassifyBatch {
            programs: vec![
                BatchProgram {
                    name: "x".into(),
                    program: "  halt\n".into(),
                    victim: "none".into(),
                    threshold: None,
                };
                MAX_BATCH_PROGRAMS + 1
            ],
            deadline_ms: None,
            debug_sleep_ms: 0,
        };
        assert!(Request::parse(&oversized.to_json().to_string())
            .unwrap_err()
            .contains("cap"));
    }

    #[test]
    fn request_id_rides_the_envelope_and_echoes_verbatim() {
        let req = Request::Ping.to_json();
        assert_eq!(request_id(&req), None);
        // Any non-null JSON value tags a frame; null means untagged.
        for id in [
            Json::Num(17.0),
            Json::Str("req-aa".into()),
            Json::Bool(false),
        ] {
            let tagged = with_request_id(req.clone(), &id);
            assert_eq!(request_id(&tagged), Some(id.clone()));
            // The tag is invisible to request parsing.
            assert_eq!(
                Request::parse(&tagged.to_string()),
                Request::parse(&req.to_string())
            );
        }
        assert_eq!(request_id(&with_request_id(req, &Json::Null)), None);
        // On responses the id lands right after ok, alongside trace_id.
        let resp = with_request_id(
            with_trace_id(ok_frame(vec![("pong".into(), Json::Bool(true))]), 9),
            &Json::Num(4.0),
        );
        assert_eq!(
            resp.to_string(),
            "{\"ok\":true,\"id\":4,\"trace_id\":9,\"pong\":true}"
        );
    }

    #[test]
    fn error_taxonomy_round_trips_and_only_overloaded_retries() {
        for kind in ErrorKind::ALL {
            assert_eq!(ErrorKind::parse(kind.as_str()), Some(kind));
            assert_eq!(kind.to_string(), kind.as_str());
            assert_eq!(kind.is_retryable(), kind == ErrorKind::Overloaded);
        }
        assert_eq!(ErrorKind::parse("wat"), None);
    }

    fn read_all_frames(bytes: &[u8], limit: usize) -> Result<Vec<String>, FrameReadError> {
        let mut r = io::BufReader::new(bytes);
        let mut frames = Vec::new();
        while let Some(f) = read_frame_limited(&mut r, limit)? {
            frames.push(f);
        }
        Ok(frames)
    }

    #[test]
    fn read_frame_matches_read_line_on_well_formed_input() {
        let frames = read_all_frames(b"one\ntwo\r\n\nfour", 64).expect("read");
        assert_eq!(frames, ["one", "two", "", "four"]);
    }

    #[test]
    fn oversized_frames_are_refused_at_the_limit() {
        // Exactly at the limit passes; one byte over fails, with or
        // without a newline ever arriving.
        assert_eq!(
            read_all_frames(b"12345678\n", 8).expect("read"),
            ["12345678"]
        );
        for endless in [&b"123456789\n"[..], &b"123456789"[..]] {
            match read_all_frames(endless, 8) {
                Err(FrameReadError::TooLong { limit: 8 }) => {}
                other => panic!("expected TooLong, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_garbled_empty_and_oversized_frames_never_panic() {
        // Property-style: random mutations of a valid frame — truncated
        // at every byte, garbled bytes (including invalid UTF-8), empty
        // lines, and oversized padding — must yield Ok or a structured
        // error from both the reader and the parser, never a panic or
        // unbounded buffering.
        let valid = Request::Classify {
            name: "fr".into(),
            program: "  mov r1, 7\n  halt\n".into(),
            victim: "shared:3".into(),
            threshold: None,
            deadline_ms: None,
            debug_sleep_ms: 0,
            debug_panic: false,
        }
        .to_json()
        .to_string();
        let limit = valid.len() + 64;
        let mut rng = sca_isa::rng::SmallRng::seed_from_u64(0x0c4a05);
        for case in 0..512u32 {
            let mut bytes = valid.clone().into_bytes();
            match case % 4 {
                0 => {
                    // Truncate at a random byte.
                    let cut = (rng.gen_range(0..bytes.len() as u64 + 1)) as usize;
                    bytes.truncate(cut);
                }
                1 => {
                    // Garble a handful of bytes (may break UTF-8/JSON).
                    for _ in 0..4 {
                        let i = rng.gen_range(0..bytes.len() as u64) as usize;
                        bytes[i] = rng.gen_range(0..256u64) as u8;
                    }
                }
                2 => bytes.clear(),
                _ => {
                    // Pad past the limit with non-newline noise.
                    bytes.extend(std::iter::repeat_n(b'x', limit + 1));
                }
            }
            bytes.push(b'\n');
            match read_all_frames(&bytes, limit) {
                Ok(frames) => {
                    for f in frames {
                        // Parse may succeed or fail; it must not panic.
                        let _ = Request::parse(&f);
                    }
                }
                Err(FrameReadError::TooLong { .. }) => assert_eq!(case % 4, 3),
                Err(FrameReadError::Io(e)) => panic!("in-memory reader failed: {e}"),
            }
        }
    }

    /// Drive an assembler over `bytes` in `chunk`-sized feeds, popping
    /// eagerly after every feed — the reactor's access pattern.
    fn assemble_all(bytes: &[u8], limit: usize, chunk: usize) -> Result<Vec<String>, FrameTooLong> {
        let mut asm = FrameAssembler::new(limit);
        let mut frames = Vec::new();
        for piece in bytes.chunks(chunk.max(1)) {
            asm.feed(piece);
            while let Some(f) = asm.next_frame()? {
                frames.push(f);
            }
        }
        asm.set_eof();
        while let Some(f) = asm.next_frame()? {
            frames.push(f);
        }
        assert!(asm.is_drained());
        Ok(frames)
    }

    #[test]
    fn assembler_matches_blocking_reads_at_any_chunk_size() {
        let inputs: &[&[u8]] = &[
            b"one\ntwo\r\n\nfour",
            b"{\"cmd\":\"ping\"}\n{\"cmd\":\"stats\"}\n",
            b"exactly-eight\n",
            b"trailing-partial",
            b"\xffgarbled\xfe\nok\n",
            b"",
            b"\n\n\n",
        ];
        for bytes in inputs {
            for limit in [4usize, 16, 64] {
                let blocking = read_all_frames(bytes, limit);
                for chunk in [1usize, 3, 7, 4096] {
                    let incremental = assemble_all(bytes, limit, chunk);
                    match (&blocking, &incremental) {
                        (Ok(a), Ok(b)) => assert_eq!(a, b, "chunk {chunk} limit {limit}"),
                        (
                            Err(FrameReadError::TooLong { limit: a }),
                            Err(FrameTooLong { limit: b }),
                        ) => {
                            assert_eq!(a, b);
                        }
                        (b, i) => panic!("blocking {b:?} vs incremental {i:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn assembler_accepts_a_frame_at_exactly_the_limit() {
        let mut asm = FrameAssembler::new(5);
        asm.feed(b"12345\n");
        assert_eq!(asm.next_frame(), Ok(Some("12345".into())));
        asm.feed(b"123456\n");
        assert_eq!(asm.next_frame(), Err(FrameTooLong { limit: 5 }));
    }

    #[test]
    fn assembler_rejects_an_unterminated_overlong_line_before_eof() {
        // The limit trips as soon as too many bytes are buffered with no
        // newline — the reactor must not wait for a newline that may
        // never come (that was the read_line memory-exhaustion vector).
        let mut asm = FrameAssembler::new(8);
        asm.feed(b"123456");
        assert_eq!(asm.next_frame(), Ok(None));
        assert!(asm.has_partial());
        asm.feed(b"789");
        assert_eq!(asm.next_frame(), Err(FrameTooLong { limit: 8 }));
    }

    #[test]
    fn assembler_pops_buffered_frames_without_new_bytes() {
        // An unpaused connection must be able to drain frames that
        // arrived while it was paused, with no further socket reads.
        let mut asm = FrameAssembler::new(64);
        asm.feed(b"a\nb\nc");
        assert_eq!(asm.next_frame(), Ok(Some("a".into())));
        assert_eq!(asm.next_frame(), Ok(Some("b".into())));
        assert_eq!(asm.next_frame(), Ok(None));
        assert!(asm.has_partial());
        assert_eq!(asm.buffered(), 1);
        asm.set_eof();
        assert_eq!(asm.next_frame(), Ok(Some("c".into())));
        assert_eq!(asm.next_frame(), Ok(None));
        assert!(asm.is_drained());
    }
}

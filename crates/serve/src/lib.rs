//! # sca-serve — a resident SCAGuard detection service
//!
//! The offline `scaguard classify` pays the full pipeline on every
//! invocation: process startup, repository load, model build, similarity
//! engine preparation. This crate keeps all of that resident in one
//! process — a warm content-addressed [`ModelBuilder`] and a prepared
//! [`Detector`] — behind a small TCP protocol of newline-delimited JSON
//! frames, so repeated classifications pay only the incremental work.
//!
//! The server is std-only (threads, `TcpListener`, `Mutex`/`Condvar`)
//! and built from three pieces:
//!
//! - [`protocol`] — the wire format: requests, response frames, error
//!   kinds, and frame I/O. Detections on the wire are rendered by
//!   [`scaguard::detection_json`], byte-identical to
//!   `scaguard classify --json`.
//! - [`queue`] — a bounded admission queue (full queue ⇒ the request is
//!   shed with an explicit `overloaded` response — admission control,
//!   never unbounded backlog) and the per-connection [`queue::Outbox`]
//!   reply buffer.
//! - [`server`] — the event-driven connection layer: one reactor thread
//!   owns the nonblocking listener and every accepted socket, assembles
//!   frames from partial reads, and parks idle connections as plain
//!   registry entries (no thread per connection — thousands of idle
//!   watchers cost nothing); plus the fixed worker pool, which runs
//!   every job — classify work (its scan handed to a scan pool of
//!   per-generation detector clones), watch-stream increments and hot
//!   repository reloads (atomic `Arc` swap — each request is answered
//!   by exactly one repository generation) — with deadline propagation
//!   into the engine's bounded-DTW hook. After `spawn` the server starts
//!   no thread: it runs the reactor and two threads per worker, however
//!   many connections, streams or reloads it serves.
//!
//! [`client`] is the matching blocking client, used by `scaguard
//! submit`, the integration tests, and the `scabench` benchmark. It speaks
//! both the classic one-in-one-out mode and the pipelined mode
//! ([`Client::pipeline`]) with in-order reassembly, and batches many
//! programs into one `classify-batch` frame with
//! [`Client::submit_batch`].
//!
//! The protocol also carries **online detection**: `watch` opens a
//! long-lived stream on a connection, `watch-push` frames drive the
//! program forward increment by increment, and the server pushes
//! `progress`/`alarm`/`done` events as the streaming scorer
//! ([`scaguard::StreamSession`]) sees each committed prefix — an alarm
//! can fire long before the trace ends, and it is never retracted.
//! An open stream is an entry in its connection's registry and holds no
//! thread; each push is a job on the worker pool, ordered by pausing the
//! connection as an untagged classify is. Streams are accounted in the
//! flight recorder (one `watch` summary per stream) and the
//! `serve.streams_active` gauge, and die with their connection.
//!
//! Every response frame carries a `trace_id` (see
//! [`protocol::trace_id`]); requests flagged with `"timings": true` on
//! the envelope additionally get a stage-timing breakdown
//! ([`protocol::timings`]). The `metrics` command exposes the full
//! telemetry snapshot on the wire, and a fixed-size flight recorder
//! ([`sca_telemetry::FlightRecorder`]) keeps the last N request
//! summaries resident for post-hoc triage — including shed, timed-out,
//! and panicked requests that never produced a detection.
//!
//! [`ModelBuilder`]: scaguard::ModelBuilder
//! [`Detector`]: scaguard::Detector

pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::{Client, ClientConfig, WatchOptions};
pub use protocol::{
    request_id, timings, trace_id, with_request_id, with_timings_flag, BatchProgram, ErrorKind,
    Request, MAX_BATCH_PROGRAMS, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
pub use server::{spawn, ServeConfig, ServeError, ServerHandle, StatsSnapshot};

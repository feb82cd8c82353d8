#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! `pas serve` — a fault-isolated, back-pressured plan/simulation
//! service with a content-addressed plan cache.
//!
//! The paper's offline/online split (expensive Theorem-1 analysis once,
//! cheap per-frame serving forever after) only pays off if the offline
//! half can run somewhere long-lived. This crate is that somewhere: a
//! daemon that accepts plan/check/run/trace requests as
//! newline-delimited JSON over TCP, a Unix socket, or a watched drop
//! directory, and answers every single one with a structured response —
//! whatever the request did.
//!
//! Robustness is the design center:
//!
//! - **Back-pressure, never unbounded queueing** — a fixed worker pool
//!   drains a bounded queue; beyond capacity, requests shed immediately
//!   with a retry-after hint (`PAS0504`).
//! - **Deadlines with cancellation** — on expiry the submitter answers
//!   `PAS0505` and flips a cooperative cancellation flag workers poll.
//! - **Panic isolation** — handlers run under `catch_unwind`; a panic
//!   becomes a `PAS0506` response and the worker keeps serving.
//! - **Graceful degradation** — plans are cached content-addressed by an
//!   input digest ([`cache::PlanCache`]); when re-derivation fails, the
//!   last known-good plan is served flagged `stale: true` (`PAS0507`).
//! - **Validation on ingest** — every request runs through `pas-analyze`
//!   before touching the simulator; failures are structured `PAS05xx`
//!   error responses, the service-side equivalent of `pas check` exit 2;
//!   transient workload-file reads retry with backoff (`serve.io_retries`).
//! - **One record per request** — each pooled request's lifecycle
//!   (ingest, enqueue, dispatch, handler return, cache outcome, spans) is
//!   written once into its record; at respond one `finish` derives the
//!   counters, latency samples, flight events, timeline and log lines
//!   from it ([`telemetry`]), and counts exactly one
//!   `serve.responses.<status>`. `status` reports counters, cache hit
//!   rate and per-kind latency quantiles; `metrics` renders them in
//!   Prometheus text format; `--log` writes single-line JSON records
//!   carrying the request's correlation id (client-chosen or minted
//!   `auto-<seq>`).
//! - **Per-request timelines and a flight recorder** — `"trace": true`
//!   echoes the request's span timeline and `--trace-out DIR` writes it
//!   as a Chrome trace; a bounded black box of lifecycle events dumps a
//!   versioned crash report to `--crash-dir` on panic, deadline
//!   cancellation, or (under `--debug-faults`) shed.
//! - **Graceful shutdown** — `SIGTERM`/`SIGINT` or an in-band `shutdown`
//!   request stops accepting and drains in-flight work under a deadline.
//!
//! The wire schema is documented in `docs/service.md`; the `PAS0501` –
//! `PAS0508` diagnostics in `docs/diagnostics.md`.
//!
//! # Example
//!
//! ```
//! use pas_serve::{ServeConfig, Service};
//!
//! let svc = Service::start(ServeConfig {
//!     workers: 2,
//!     ..ServeConfig::default()
//! });
//! let resp = svc.handle_line(r#"{"id":"1","kind":"status"}"#);
//! assert!(resp.contains("\"status\":\"ok\""));
//! assert_eq!(svc.shutdown(), 0);
//! ```

pub mod cache;
mod flight;
mod handlers;
pub mod net;
mod pool;
pub mod proto;
mod queue;
mod reqtrace;
pub mod service;
pub mod telemetry;

pub use cache::{CachedPlan, PlanCache};
pub use flight::CRASH_SCHEMA_VERSION;
pub use net::{run_server, Endpoints};
pub use proto::{parse_request, Rejection, ReqKind, Request, PROTO_VERSION};
pub use service::{ServeConfig, Service};
pub use telemetry::{LATENCY_KINDS, LATENCY_STAGES, PRE_SEEDED_COUNTERS};

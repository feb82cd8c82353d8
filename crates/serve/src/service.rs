//! The service front-end: one request line in, one response line out.
//!
//! [`Service::handle_line`] is the whole synchronous round trip — parse,
//! admission (back-pressure), dispatch to the pool, deadline enforcement
//! — and is transport-agnostic: the TCP, Unix-socket and drop-directory
//! front-ends in [`crate::net`] all funnel through it, as do the tests.
//! A pooled request's lifecycle lives in its record; `handle_line`
//! marks it and hands the outcome to `Telemetry::finish`, which answers.

use crate::cache::PlanCache;
use crate::flight::FlightRecorder;
use crate::handlers;
use crate::pool::{Job, JobCtx, SubmitError, WorkerPool};
use crate::proto::{object, ok_response, parse_request, Rejection, ReqKind};
use crate::reqtrace::{Outcome, Record, Stage};
use crate::telemetry::{self, Telemetry};
use pas_analyze::Code;
use pas_obs::log;
use serde::Value;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Tunables for one service instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Bounded queue capacity; beyond it requests shed (`PAS0504`).
    pub queue_cap: usize,
    /// Per-request deadline when the request names none (ms).
    pub default_timeout_ms: u64,
    /// Enables the `debug-*` fault-injection kinds and `fail_build`.
    pub debug_faults: bool,
    /// Directory for flight-recorder crash reports (`--crash-dir`);
    /// `None` disables report files (the ring still records).
    pub crash_dir: Option<String>,
    /// Directory for per-request Chrome-trace files (`--trace-out`);
    /// `None` means timelines exist only for `"trace": true` requests.
    pub trace_dir: Option<String>,
}

/// Plans kept in the content-addressed LRU.
const CACHE_CAP: usize = 32;
/// How long shutdown waits for in-flight work (ms).
const DRAIN_MS: u64 = 5_000;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_cap: 64,
            default_timeout_ms: 10_000,
            debug_faults: false,
            crash_dir: None,
            trace_dir: None,
        }
    }
}

/// A running service: worker pool, plan cache, telemetry, shutdown flag.
pub struct Service {
    cfg: ServeConfig,
    pool: WorkerPool,
    tel: Arc<Telemetry>,
    cache: Arc<PlanCache>,
    shutdown_requested: AtomicBool,
    next_auto_id: AtomicU64,
    started: Instant,
}

impl Service {
    /// Spawns the worker pool and returns a ready service.
    pub fn start(cfg: ServeConfig) -> Self {
        let tel = Arc::new(Telemetry::new(&cfg));
        let cache = Arc::new(PlanCache::new(CACHE_CAP));
        let handler_cfg = cfg.clone();
        let handler_cache = Arc::clone(&cache);
        let handler_tel = Arc::clone(&tel);
        let handler: crate::pool::Handler = Arc::new(move |req, ctx| {
            handlers::handle(&handler_cfg, &handler_cache, &handler_tel.metrics, req, ctx)
        });
        let pool = WorkerPool::new(cfg.workers, cfg.queue_cap, Arc::clone(&tel), handler);
        Service {
            cfg,
            pool,
            tel,
            cache,
            shutdown_requested: AtomicBool::new(false),
            next_auto_id: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Mints a fresh request id (`auto-<seq>`) for requests that arrive
    /// without one, so every response and log line stays correlatable.
    fn generate_request_id(&self) -> String {
        let seq = self.next_auto_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.tel.count("serve.request_ids.generated");
        format!("auto-{seq:06}")
    }

    /// Answers a line refused before it became a request — malformed, or
    /// (from the socket front-ends) over the line-length cap. Even such a
    /// line gets a minted id, so the error response is correlatable in
    /// client logs.
    pub(crate) fn refuse(&self, rej: &Rejection) -> String {
        self.tel.count("serve.requests");
        let id = self.generate_request_id();
        self.tel.refuse(&id, rej)
    }

    /// The full round trip for one request line: always returns exactly
    /// one single-line JSON response, whatever the input did.
    pub fn handle_line(&self, line: &str) -> String {
        let t0 = Instant::now();
        let mut req = match parse_request(line) {
            Ok(req) => req,
            Err(rej) => return self.refuse(&rej),
        };
        self.tel.count("serve.requests");
        if req.id == "-" {
            req.id = self.generate_request_id();
        } else {
            self.tel.count("serve.request_ids.client");
        }

        // Control-plane kinds bypass the queue: health must stay
        // observable under full load, and shutdown must always land.
        let control = match req.kind {
            ReqKind::Status => Some(self.status_body()),
            ReqKind::Metrics => Some(self.metrics_body()),
            ReqKind::Shutdown => {
                self.shutdown_requested.store(true, Ordering::SeqCst);
                Some(object(vec![("draining", Value::Bool(true))]))
            }
            _ => None,
        };
        if let Some(body) = control {
            self.tel.responded("ok");
            return ok_response(&req.id, req.kind, body);
        }

        let timeout_ms = req.timeout_ms.unwrap_or(self.cfg.default_timeout_ms);
        let _corr = log::with_corr(&req.id);
        // Spans are collected only when someone will read them: the
        // client asked for the echo, or the daemon writes traces.
        let traced = req.trace || self.cfg.trace_dir.is_some();
        let rec = Arc::new(Record::new(&req, line, t0, traced));
        self.tel.mark(&rec, Stage::Ingest);
        let cancelled = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let ctx = JobCtx {
            cancelled: Arc::clone(&cancelled),
            record: Arc::clone(&rec),
        };
        self.tel.mark(&rec, Stage::Enqueue);
        let outcome = match self.pool.submit(Job {
            req,
            ctx,
            reply: tx,
        }) {
            Err(SubmitError::QueueFull { depth }) => Outcome::Shed(depth),
            Err(SubmitError::ShuttingDown) => Outcome::Error(Rejection::new(
                Code::Pas0504,
                "service is draining for shutdown",
            )),
            Ok(_) => rx
                .recv_timeout(Duration::from_millis(timeout_ms))
                .unwrap_or_else(|_| {
                    // Deadline expired: cancel cooperatively. A worker
                    // mid-job abandons at its next check; a job still
                    // queued is skipped entirely.
                    cancelled.store(true, Ordering::SeqCst);
                    Outcome::Timeout(timeout_ms)
                }),
        };
        self.tel.finish(&rec, outcome, self.pool.queue_depth())
    }

    /// The `/health`-style snapshot served for `status` requests.
    fn status_body(&self) -> Value {
        let m = self.tel.registry();
        let hits = m.counter("serve.cache.hits");
        let misses = m.counter("serve.cache.misses");
        let hit_rate = if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        };
        let (counters, gauges) = telemetry::serve_values(&m);
        let ms = |x: Option<f64>| x.map_or(Value::Null, Value::Float);
        let latency = self
            .tel
            .latencies
            .snapshot()
            .into_iter()
            .map(|(key, snap)| {
                let series = object(vec![
                    ("count", Value::UInt(snap.count)),
                    ("sum_ms", Value::Float(snap.sum_ms)),
                    ("p50_ms", ms(snap.p50_ms)),
                    ("p95_ms", ms(snap.p95_ms)),
                    ("p99_ms", ms(snap.p99_ms)),
                ]);
                (key.dotted(), series)
            });
        let uint = |n: usize| Value::UInt(n as u64);
        let flight = &self.tel.flight;
        object(vec![
            (
                "uptime_ms",
                Value::Float(self.started.elapsed().as_secs_f64() * 1e3),
            ),
            (
                "queue",
                object(vec![
                    ("depth", uint(self.pool.queue_depth())),
                    ("capacity", uint(self.pool.queue_capacity())),
                    ("busy_workers", uint(self.pool.busy_workers())),
                    ("workers", uint(self.cfg.workers)),
                ]),
            ),
            (
                "cache",
                object(vec![
                    ("size", uint(self.cache.len())),
                    ("capacity", uint(CACHE_CAP)),
                    ("hits", Value::UInt(hits)),
                    ("misses", Value::UInt(misses)),
                    ("hit_rate", Value::Float(hit_rate)),
                ]),
            ),
            (
                "crashes",
                object(vec![
                    ("count", Value::UInt(flight.crash_count())),
                    (
                        "last_path",
                        flight.last_crash_path().map_or(Value::Null, Value::Str),
                    ),
                ]),
            ),
            ("counters", counters),
            ("gauges", gauges),
            ("latency", Value::Object(latency.collect())),
        ])
    }

    /// The body served for `metrics` requests: the full `serve.*`
    /// surface rendered in Prometheus text exposition format. The text
    /// is carried inside the usual JSON envelope (the transport is
    /// line-delimited JSON, not HTTP); a scraper unwraps `exposition`.
    fn metrics_body(&self) -> Value {
        let text = telemetry::prometheus_exposition(&self.tel.registry(), &self.tel.latencies);
        let content_type = Value::Str("text/plain; version=0.0.4".to_string());
        object(vec![
            ("content_type", content_type),
            ("exposition", Value::Str(text)),
        ])
    }

    /// True once a `shutdown` request (or signal) asked us to drain.
    pub fn is_shutdown_requested(&self) -> bool {
        self.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Drains the pool under the configured deadline; returns the number
    /// of workers abandoned mid-job (0 on a clean drain).
    pub fn shutdown(&self) -> usize {
        self.pool.shutdown(Duration::from_millis(DRAIN_MS))
    }

    /// A snapshot of counter `name` (test and summary helper).
    pub fn counter(&self, name: &str) -> u64 {
        self.tel.registry().counter(name)
    }

    /// The flight recorder (test and summary helper).
    pub fn flight(&self) -> &FlightRecorder {
        &self.tel.flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_cap: 4,
            default_timeout_ms: 30_000,
            debug_faults: true,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn malformed_lines_get_an_error_response_not_a_crash() {
        let svc = Service::start(quick_cfg());
        let resp = svc.handle_line("{oops");
        assert!(resp.contains("PAS0501"), "{resp}");
        assert_eq!(svc.counter("serve.responses.error"), 1);
        assert_eq!(svc.shutdown(), 0);
    }

    #[test]
    fn status_bypasses_the_queue_and_reports_counters() {
        let svc = Service::start(quick_cfg());
        let ok = svc.handle_line(r#"{"id":"r","kind":"run","workload":"synthetic"}"#);
        assert!(ok.contains("\"status\":\"ok\""), "{ok}");
        let status = svc.handle_line(r#"{"id":"s","kind":"status"}"#);
        let v: Value = serde_json::from_str(&status).expect("valid JSON");
        let body = v.get("body").expect("body");
        assert!(body.get("queue").is_some());
        assert!(body.get("cache").is_some());
        let counters = body.get("counters").expect("counters");
        assert_eq!(
            counters.get("serve.responses.ok"),
            Some(&Value::UInt(1)),
            "{status}"
        );
        assert_eq!(svc.shutdown(), 0);
    }

    #[test]
    fn timeout_cancels_and_answers_pas0505() {
        let svc = Service::start(quick_cfg());
        let resp =
            svc.handle_line(r#"{"id":"t","kind":"debug-sleep","sleep_ms":60000,"timeout_ms":50}"#);
        assert!(resp.contains("PAS0505"), "{resp}");
        assert_eq!(svc.counter("serve.timeouts"), 1);
        // The cancelled flag stops the sleeper, so the drain is clean.
        assert_eq!(svc.shutdown(), 0);
    }

    #[test]
    fn requests_without_an_id_get_a_minted_one() {
        let svc = Service::start(quick_cfg());
        let resp = svc.handle_line(r#"{"kind":"run","workload":"synthetic"}"#);
        let v: Value = serde_json::from_str(&resp).expect("valid JSON");
        let id = v.get("id").and_then(Value::as_str).expect("id");
        assert!(id.starts_with("auto-"), "{resp}");
        assert_eq!(svc.counter("serve.request_ids.generated"), 1);
        assert_eq!(svc.counter("serve.request_ids.client"), 0);

        // A client-chosen id is echoed verbatim and tallied separately.
        let resp = svc.handle_line(r#"{"id":"mine","kind":"status"}"#);
        let v: Value = serde_json::from_str(&resp).expect("valid JSON");
        assert_eq!(v.get("id").and_then(Value::as_str), Some("mine"));
        assert_eq!(svc.counter("serve.request_ids.client"), 1);

        // Malformed lines still answer with a minted id, not "-".
        let resp = svc.handle_line("{oops");
        let v: Value = serde_json::from_str(&resp).expect("valid JSON");
        let id = v.get("id").and_then(Value::as_str).expect("id");
        assert!(id.starts_with("auto-"), "{resp}");
        assert_eq!(svc.counter("serve.request_ids.generated"), 2);
        assert_eq!(svc.shutdown(), 0);
    }

    #[test]
    fn metrics_requests_render_the_prometheus_exposition() {
        let svc = Service::start(quick_cfg());
        let ok = svc.handle_line(r#"{"id":"r","kind":"run","workload":"synthetic"}"#);
        assert!(ok.contains("\"status\":\"ok\""), "{ok}");
        let resp = svc.handle_line(r#"{"id":"m","kind":"metrics"}"#);
        let v: Value = serde_json::from_str(&resp).expect("valid JSON");
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
        let body = v.get("body").expect("body");
        assert_eq!(
            body.get("content_type").and_then(Value::as_str),
            Some("text/plain; version=0.0.4")
        );
        let text = body
            .get("exposition")
            .and_then(Value::as_str)
            .expect("exposition");
        assert!(text.contains("# TYPE serve_requests counter"), "{text}");
        assert!(text.contains("# TYPE serve_latency summary"), "{text}");
        assert!(
            text.contains("serve_latency_count{kind=\"run\",stage=\"total\"} 1"),
            "{text}"
        );
        // Pre-seeded series are present before any traffic of that kind.
        assert!(text.contains("serve_cache_hits 0"), "{text}");
        assert!(
            text.contains("serve_latency_count{kind=\"check\",stage=\"queue\"} 0"),
            "{text}"
        );
        assert_eq!(svc.shutdown(), 0);
    }

    #[test]
    fn status_reports_latency_quantiles_per_kind() {
        let svc = Service::start(quick_cfg());
        let ok = svc.handle_line(r#"{"id":"r","kind":"run","workload":"synthetic"}"#);
        assert!(ok.contains("\"status\":\"ok\""), "{ok}");
        let status = svc.handle_line(r#"{"id":"s","kind":"status"}"#);
        let v: Value = serde_json::from_str(&status).expect("valid JSON");
        let latency = v
            .get("body")
            .and_then(|b| b.get("latency"))
            .expect("latency block");
        let total = latency
            .get("serve.latency.run.total")
            .expect("run total series");
        assert_eq!(total.get("count"), Some(&Value::UInt(1)), "{status}");
        assert!(
            matches!(total.get("p50_ms"), Some(Value::Float(x)) if *x >= 0.0),
            "{status}"
        );
        assert!(
            matches!(total.get("p99_ms"), Some(Value::Float(_))),
            "{status}"
        );
        // Untouched kinds stay visible with empty quantiles.
        let idle = latency
            .get("serve.latency.check.exec")
            .expect("pre-seeded series");
        assert_eq!(idle.get("count"), Some(&Value::UInt(0)), "{status}");
        assert_eq!(idle.get("p50_ms"), Some(&Value::Null), "{status}");
        assert_eq!(svc.shutdown(), 0);
    }

    #[test]
    fn trace_requests_echo_a_full_timeline() {
        let svc = Service::start(quick_cfg());
        let resp =
            svc.handle_line(r#"{"id":"tr","kind":"plan","workload":"synthetic","trace":true}"#);
        let v: Value = serde_json::from_str(&resp).expect("valid JSON");
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
        let tl = v
            .get("timeline")
            .and_then(Value::as_array)
            .expect("timeline echoed");
        let seen: Vec<&str> = tl
            .iter()
            .filter_map(|s| s.get("name").and_then(Value::as_str))
            .collect();
        for required in [
            "req.ingest",
            "req.queue_wait",
            "req.validate",
            "req.cache_lookup",
            "req.exec",
            "req.respond",
        ] {
            assert!(seen.contains(&required), "missing {required} in {seen:?}");
        }
        // A cache miss runs the real derivation, so the offline catalog
        // names appear too — the join point with `pas plan --profile`.
        assert!(seen.contains(&"offline.build"), "{seen:?}");

        // Untraced requests stay untouched.
        let resp = svc.handle_line(r#"{"id":"plain","kind":"run"}"#);
        let v: Value = serde_json::from_str(&resp).expect("valid JSON");
        assert!(v.get("timeline").is_none(), "{resp}");
        assert_eq!(svc.shutdown(), 0);
    }

    /// The echo appends the `timeline` member to the rendered reply: the
    /// rest of a traced reply is the untraced reply, byte for byte.
    #[test]
    fn traced_replies_are_untraced_replies_plus_a_timeline() {
        let svc = Service::start(quick_cfg());
        let miss = svc.handle_line(r#"{"id":"p","kind":"plan","workload":"synthetic"}"#);
        assert!(miss.contains("\"cached\":false"), "{miss}");
        for line in [
            r#"{"id":"p","kind":"plan","workload":"synthetic"}"#,
            r#"{"id":"r","kind":"run","workload":"synthetic","seed":7}"#,
            r#"{"id":"c","kind":"check","workload":"synthetic"}"#,
            r#"{"id":"m","kind":"montecarlo","workload":"synthetic","batch":64,"seed":3}"#,
        ] {
            let plain = svc.handle_line(line);
            let head = line.strip_suffix('}').expect("an object");
            let traced = svc.handle_line(&format!(r#"{head},"trace":true}}"#));
            let cut = traced.find(r#","timeline":["#).expect("timeline echoed");
            assert_eq!(format!("{}}}", &traced[..cut]), plain, "{line}");
            assert!(traced.ends_with("]}"), "{traced}");
        }
        assert!(svc
            .handle_line(r#"{"id":"p","kind":"plan","workload":"synthetic"}"#)
            .contains("\"cached\":true"));
        assert_eq!(svc.shutdown(), 0);
    }

    #[test]
    fn status_reports_crash_bookkeeping() {
        let svc = Service::start(quick_cfg());
        let status = svc.handle_line(r#"{"id":"s","kind":"status"}"#);
        let v: Value = serde_json::from_str(&status).expect("valid JSON");
        let crashes = v
            .get("body")
            .and_then(|b| b.get("crashes"))
            .expect("crashes block");
        assert_eq!(crashes.get("count"), Some(&Value::UInt(0)), "{status}");
        assert_eq!(crashes.get("last_path"), Some(&Value::Null), "{status}");
        assert_eq!(svc.shutdown(), 0);
    }

    #[test]
    fn shutdown_request_sets_the_drain_flag() {
        let svc = Service::start(quick_cfg());
        assert!(!svc.is_shutdown_requested());
        let resp = svc.handle_line(r#"{"id":"x","kind":"shutdown"}"#);
        assert!(resp.contains("\"draining\":true"), "{resp}");
        assert!(svc.is_shutdown_requested());
        assert_eq!(svc.shutdown(), 0);
    }
}

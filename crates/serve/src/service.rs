//! The service front-end: one request line in, one response line out.
//!
//! [`Service::handle_line`] is the whole synchronous round trip — parse,
//! admission (back-pressure), dispatch to the pool, deadline enforcement
//! — and is transport-agnostic: the TCP, Unix-socket and drop-directory
//! front-ends in [`crate::net`] all funnel through it, as do the tests.

use crate::cache::PlanCache;
use crate::flight::FlightRecorder;
use crate::handlers;
use crate::pool::{Job, JobCtx, SubmitError, WorkerPool};
use crate::proto::{
    error_response, ok_response, parse_request, shed_response, timeout_response, Rejection, ReqKind,
};
use crate::reqtrace::{sanitize_id, Timeline};
use crate::telemetry::{self, LatencyStore, SeriesKey};
use pas_analyze::Code;
use pas_obs::profile::names;
use pas_obs::{log, MetricsRegistry};
use serde::Value;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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
/// The hint sent with shed responses (ms).
const RETRY_AFTER_MS: u64 = 50;
/// How long shutdown waits for in-flight work (ms).
const DRAIN_MS: u64 = 5_000;
/// Flight-recorder ring capacity (lifecycle events retained).
const FLIGHT_CAP: usize = 64;

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

/// A running service: worker pool, plan cache, metrics, shutdown flag.
pub struct Service {
    cfg: ServeConfig,
    pool: WorkerPool,
    metrics: Arc<Mutex<MetricsRegistry>>,
    latencies: Arc<LatencyStore>,
    cache: Arc<PlanCache>,
    flight: Arc<FlightRecorder>,
    shutdown_requested: Arc<AtomicBool>,
    next_auto_id: AtomicU64,
    started: Instant,
}

impl Service {
    /// Spawns the worker pool and returns a ready service.
    pub fn start(cfg: ServeConfig) -> Self {
        let metrics = Arc::new(Mutex::new(MetricsRegistry::new()));
        {
            // Pre-seed every lifecycle counter at zero so the health
            // snapshot always reports the full set — an operator can
            // tell "never shed" from "not instrumented". The catalog
            // lives in `telemetry` so the docs-sync tests police it.
            let mut m = metrics.lock().unwrap_or_else(|e| e.into_inner());
            for name in telemetry::PRE_SEEDED_COUNTERS {
                m.inc(name, 0);
            }
        }
        let latencies = Arc::new(LatencyStore::new());
        let cache = Arc::new(PlanCache::new(CACHE_CAP));
        let flight = Arc::new(FlightRecorder::new(FLIGHT_CAP, cfg.crash_dir.clone()));
        let handler_cfg = cfg.clone();
        let handler_cache = Arc::clone(&cache);
        let handler_metrics = Arc::clone(&metrics);
        let handler: crate::pool::Handler = Arc::new(move |req, ctx| {
            handlers::handle(&handler_cfg, &handler_cache, &handler_metrics, req, ctx)
        });
        let pool = WorkerPool::new(
            cfg.workers,
            cfg.queue_cap,
            Arc::clone(&metrics),
            Arc::clone(&latencies),
            Arc::clone(&flight),
            handler,
        );
        Service {
            cfg,
            pool,
            metrics,
            latencies,
            cache,
            flight,
            shutdown_requested: Arc::new(AtomicBool::new(false)),
            next_auto_id: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Mints a fresh request id (`auto-<seq>`) for requests that arrive
    /// without one, so every response and log line stays correlatable.
    fn generate_request_id(&self) -> String {
        let seq = self.next_auto_id.fetch_add(1, Ordering::Relaxed) + 1;
        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        m.inc("serve.request_ids.generated", 1);
        format!("auto-{seq:06}")
    }

    /// The full round trip for one request line: always returns exactly
    /// one single-line JSON response, whatever the input did.
    pub fn handle_line(&self, line: &str) -> String {
        let t0 = Instant::now();
        {
            let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
            m.inc("serve.requests", 1);
        }
        let mut req = match parse_request(line) {
            Ok(req) => req,
            Err(rej) => {
                // Even an unparseable line gets a minted id, so the
                // error response is correlatable in client logs.
                let id = self.generate_request_id();
                log::emit(
                    log::Level::Warn,
                    "serve.service",
                    "request rejected at parse",
                    vec![
                        ("corr_id", Value::Str(id.clone())),
                        ("code", Value::Str(rej.code.as_str().to_string())),
                        ("message", Value::Str(rej.message.clone())),
                    ],
                );
                let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
                m.inc("serve.responses.error", 1);
                return error_response(&id, &rej);
            }
        };
        if req.id == "-" {
            req.id = self.generate_request_id();
        } else {
            let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
            m.inc("serve.request_ids.client", 1);
        }

        // Control-plane kinds bypass the queue: health must stay
        // observable under full load, and shutdown must always land.
        match req.kind {
            ReqKind::Status => {
                let body = self.status_body();
                let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
                m.inc("serve.responses.ok", 1);
                return ok_response(&req.id, ReqKind::Status, body);
            }
            ReqKind::Metrics => {
                let body = self.metrics_body();
                let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
                m.inc("serve.responses.ok", 1);
                return ok_response(&req.id, ReqKind::Metrics, body);
            }
            ReqKind::Shutdown => {
                self.shutdown_requested.store(true, Ordering::SeqCst);
                let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
                m.inc("serve.responses.ok", 1);
                return ok_response(
                    &req.id,
                    ReqKind::Shutdown,
                    crate::proto::object(vec![("draining", Value::Bool(true))]),
                );
            }
            _ => {}
        }

        let timeout_ms = req.timeout_ms.unwrap_or(self.cfg.default_timeout_ms);
        let id = req.id.clone();
        let kind = req.kind;
        let _corr = log::with_corr(&id);
        let want_echo = req.trace;
        self.flight.record("ingest", &id, kind.name());
        // A timeline exists only when someone will read it: the client
        // asked for the echo, or the daemon writes per-request traces.
        let timeline = if want_echo || self.cfg.trace_dir.is_some() {
            let tl = Arc::new(Timeline::new());
            tl.record_since(names::REQ_INGEST, t0);
            Some(tl)
        } else {
            None
        };
        let cancelled = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let job = Job {
            req,
            raw: line.to_string(),
            ctx: JobCtx {
                cancelled: Arc::clone(&cancelled),
                timeline: timeline.clone(),
            },
            reply: tx,
            enqueued: Instant::now(),
        };
        let response = match self.pool.submit(job) {
            Err(SubmitError::QueueFull { depth }) => {
                self.flight
                    .record("shed", &id, &format!("queue depth {depth}"));
                log::emit(
                    log::Level::Warn,
                    "serve.service",
                    "request shed",
                    vec![
                        ("kind", Value::Str(kind.name().to_string())),
                        ("depth", Value::UInt(depth as u64)),
                    ],
                );
                // Sheds are load signals, not faults; they dump a black
                // box only when the operator opted into fault debugging.
                if self.cfg.debug_faults
                    && self
                        .flight
                        .dump("PAS0504", &id, line, &self.metrics)
                        .is_some()
                {
                    let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
                    m.inc("serve.crash_reports", 1);
                }
                let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
                m.inc("serve.shed", 1);
                m.inc("serve.responses.shed", 1);
                shed_response(&id, RETRY_AFTER_MS, depth)
            }
            Err(SubmitError::ShuttingDown) => {
                let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
                m.inc("serve.responses.error", 1);
                error_response(
                    &id,
                    &Rejection::new(Code::Pas0504, "service is draining for shutdown"),
                )
            }
            Ok(_) => match rx.recv_timeout(Duration::from_millis(timeout_ms)) {
                Ok(line) => line,
                Err(_) => {
                    // Deadline expired: cancel cooperatively. A worker
                    // mid-job abandons at its next check; a job still
                    // queued is skipped entirely.
                    cancelled.store(true, Ordering::SeqCst);
                    self.flight
                        .record("timeout", &id, &format!("{timeout_ms} ms deadline"));
                    log::emit(
                        log::Level::Warn,
                        "serve.service",
                        "request deadline expired",
                        vec![
                            ("kind", Value::Str(kind.name().to_string())),
                            ("timeout_ms", Value::UInt(timeout_ms)),
                        ],
                    );
                    if self
                        .flight
                        .dump("PAS0505", &id, line, &self.metrics)
                        .is_some()
                    {
                        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
                        m.inc("serve.crash_reports", 1);
                    }
                    let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
                    m.inc("serve.timeouts", 1);
                    m.inc("serve.responses.timeout", 1);
                    timeout_response(&id, timeout_ms)
                }
            },
        };
        let respond_t0 = Instant::now();
        self.flight.record("respond", &id, kind.name());
        let response = match &timeline {
            Some(tl) => {
                tl.record_since(names::REQ_RESPOND, respond_t0);
                if let Some(dir) = &self.cfg.trace_dir {
                    self.write_trace_file(dir, &id, tl);
                }
                if want_echo {
                    echo_timeline(&response, tl)
                } else {
                    response
                }
            }
            None => response,
        };
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        if self
            .latencies
            .record(SeriesKey::new(kind.name(), "total"), elapsed_ms)
        {
            let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
            m.inc("serve.latency.overflow", 1);
        }
        {
            let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
            m.add_gauge(&format!("serve.stage_ms.{}", kind.name()), elapsed_ms);
            m.inc(&format!("serve.handled.{}", kind.name()), 1);
            m.set_gauge("serve.queue_depth", self.pool.queue_depth() as f64);
        }
        log::emit(
            log::Level::Debug,
            "serve.service",
            "request answered",
            vec![
                ("kind", Value::Str(kind.name().to_string())),
                ("elapsed_ms", Value::Float(elapsed_ms)),
            ],
        );
        response
    }

    /// Writes one Chrome-trace file per request under `--trace-out`; a
    /// failed write is logged and dropped, never fatal.
    fn write_trace_file(&self, dir: &str, id: &str, tl: &Timeline) {
        let dir = Path::new(dir);
        let write = std::fs::create_dir_all(dir).and_then(|()| {
            std::fs::write(
                dir.join(format!("{}.trace.json", sanitize_id(id))),
                tl.chrome_trace(),
            )
        });
        if let Err(e) = write {
            log::emit(
                log::Level::Warn,
                "serve.service",
                "trace file write failed",
                vec![("error", Value::Str(e.to_string()))],
            );
        }
    }

    /// The `/health`-style snapshot served for `status` requests.
    pub fn status_body(&self) -> Value {
        let m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let hits = m.counter("serve.cache.hits");
        let misses = m.counter("serve.cache.misses");
        let hit_rate = if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        };
        let counters: Vec<(String, Value)> = m
            .counters()
            .filter(|(name, _)| name.starts_with("serve."))
            .map(|(name, v)| (name.to_string(), Value::UInt(v)))
            .collect();
        let gauges: Vec<(String, Value)> = m
            .gauges()
            .filter(|(name, _)| name.starts_with("serve."))
            .map(|(name, v)| (name.to_string(), Value::Float(v)))
            .collect();
        fn opt_ms(x: Option<f64>) -> Value {
            x.map(Value::Float).unwrap_or(Value::Null)
        }
        let latency: Vec<(String, Value)> = self
            .latencies
            .snapshot()
            .into_iter()
            .map(|(key, snap)| {
                (
                    key.dotted(),
                    crate::proto::object(vec![
                        ("count", Value::UInt(snap.count)),
                        ("sum_ms", Value::Float(snap.sum_ms)),
                        ("p50_ms", opt_ms(snap.p50_ms)),
                        ("p95_ms", opt_ms(snap.p95_ms)),
                        ("p99_ms", opt_ms(snap.p99_ms)),
                    ]),
                )
            })
            .collect();
        crate::proto::object(vec![
            (
                "uptime_ms",
                Value::Float(self.started.elapsed().as_secs_f64() * 1e3),
            ),
            (
                "queue",
                crate::proto::object(vec![
                    ("depth", Value::UInt(self.pool.queue_depth() as u64)),
                    ("capacity", Value::UInt(self.pool.queue_capacity() as u64)),
                    ("busy_workers", Value::UInt(self.pool.busy_workers() as u64)),
                    ("workers", Value::UInt(self.cfg.workers as u64)),
                ]),
            ),
            (
                "cache",
                crate::proto::object(vec![
                    ("size", Value::UInt(self.cache.len() as u64)),
                    ("capacity", Value::UInt(CACHE_CAP as u64)),
                    ("hits", Value::UInt(hits)),
                    ("misses", Value::UInt(misses)),
                    ("hit_rate", Value::Float(hit_rate)),
                ]),
            ),
            (
                "crashes",
                crate::proto::object(vec![
                    ("count", Value::UInt(self.flight.crash_count())),
                    (
                        "last_path",
                        self.flight
                            .last_crash_path()
                            .map(Value::Str)
                            .unwrap_or(Value::Null),
                    ),
                ]),
            ),
            ("counters", Value::Object(counters)),
            ("gauges", Value::Object(gauges)),
            ("latency", Value::Object(latency)),
        ])
    }

    /// The body served for `metrics` requests: the full `serve.*`
    /// surface rendered in Prometheus text exposition format. The text
    /// is carried inside the usual JSON envelope (the transport is
    /// line-delimited JSON, not HTTP); a scraper unwraps `exposition`.
    pub fn metrics_body(&self) -> Value {
        let text = {
            let m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
            telemetry::prometheus_exposition(&m, &self.latencies)
        };
        crate::proto::object(vec![
            (
                "content_type",
                Value::Str("text/plain; version=0.0.4".to_string()),
            ),
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
        self.metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .counter(name)
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The flight recorder (test and summary helper).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }
}

/// Appends the request's span timeline to an already-rendered response
/// line as a top-level `timeline` array. A response that somehow isn't a
/// JSON object (unreachable for pool responses) passes through untouched
/// rather than being mangled.
fn echo_timeline(response: &str, tl: &Timeline) -> String {
    let Ok(Value::Object(mut pairs)) = serde_json::from_str::<Value>(response) else {
        return response.to_string();
    };
    pairs.push(("timeline".to_string(), tl.to_value()));
    serde_json::to_string(&Value::Object(pairs)).unwrap_or_else(|_| response.to_string())
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

//! Request telemetry: the daemon's one telemetry handle, the per-kind
//! latency histograms and the Prometheus text exposition behind the
//! `metrics` request kind.
//!
//! `Telemetry` owns the three stores a request feeds — the `serve.*`
//! counter/gauge registry, the latency store and the flight ring — and
//! the front end and the worker pool share it. A lifecycle mark
//! (`Telemetry::mark`) stamps the record and, at `ingest` and `dispatch`,
//! appends the flight event then, so a crash report holds what happened
//! up to the crash. At respond, `Telemetry::finish` derives everything
//! else from the record once.
//!
//! Latencies are recorded in three stages per request kind — `queue`
//! (wait in the bounded queue), `exec` (handler wall time) and `total`
//! (end-to-end, ingest to response) — on fixed-bin [`Histogram`]s so the
//! store stays bounded no matter how long the daemon runs. `plan`
//! execution is additionally split by cache outcome (`hit`/`miss`),
//! because a cached plan and a full Theorem-1 re-derivation are
//! different operations that happen to share a request kind.
//!
//! The exposition contract is documented in `docs/observability.md` and
//! policed by `tests/docs_sync.rs`.

use crate::flight::FlightRecorder;
use crate::proto::{error_response, Rejection};
use crate::reqtrace::{sanitize_id, timeline_value, Outcome, Record, Stage};
use crate::service::ServeConfig;
use pas_obs::profile::SpanRecord;
use pas_obs::{log, MetricsRegistry};
use pas_stats::Histogram;
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Flight-recorder ring capacity (lifecycle events retained).
const FLIGHT_CAP: usize = 64;

/// Lower edge of every latency histogram (ms).
const LATENCY_LO_MS: f64 = 0.0;
/// Upper edge of every latency histogram (ms); slower observations clamp
/// into the top bin rather than being dropped, and [`LatencyStore::record`]
/// reports them so callers can tally `serve.latency.overflow`.
const LATENCY_HI_MS: f64 = 10_000.0;
/// Bin count: 1 ms resolution across the range.
const LATENCY_BINS: usize = 10_000;

/// Lifecycle counters pre-seeded at zero when the service starts, so the
/// health snapshot and the exposition always report the full set — an
/// operator can tell "never shed" from "not instrumented".
pub const PRE_SEEDED_COUNTERS: &[&str] = &[
    "serve.requests",
    "serve.responses.ok",
    "serve.responses.error",
    "serve.responses.shed",
    "serve.responses.timeout",
    "serve.responses.panic",
    "serve.shed",
    "serve.timeouts",
    "serve.panics",
    "serve.worker_recoveries",
    "serve.cancelled_in_queue",
    "serve.io_retries",
    "serve.cache.hits",
    "serve.cache.misses",
    "serve.stale_served",
    "serve.request_ids.generated",
    "serve.request_ids.client",
    "serve.latency.overflow",
    "serve.crash_reports",
];

/// Request kinds whose latency series are pre-seeded at zero. Debug
/// kinds get series on demand but are not part of the stable surface.
pub const LATENCY_KINDS: &[&str] = &["plan", "check", "run", "trace", "montecarlo"];

/// The pipeline stages recorded per kind: `queue` is time spent waiting
/// in the bounded queue, `exec` is handler wall time on a worker, and
/// `total` is end-to-end from ingest to response.
pub const LATENCY_STAGES: &[&str] = &["queue", "exec", "total"];

/// Identifies one latency series: request kind, pipeline stage, and the
/// optional cache-outcome split (`plan` execution only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct SeriesKey {
    /// Wire name of the request kind (`plan`, `check`, ...).
    pub kind: &'static str,
    /// One of [`LATENCY_STAGES`].
    pub stage: &'static str,
    /// `Some("hit")` / `Some("miss")` for the plan-exec cache split.
    pub cache: Option<&'static str>,
}

impl SeriesKey {
    /// A plain kind/stage series.
    pub fn new(kind: &'static str, stage: &'static str) -> Self {
        SeriesKey {
            kind,
            stage,
            cache: None,
        }
    }

    /// The dotted metric name used in `status` bodies:
    /// `serve.latency.<kind>.<stage>[.<hit|miss>]`.
    pub fn dotted(&self) -> String {
        match self.cache {
            Some(c) => format!("serve.latency.{}.{}.{c}", self.kind, self.stage),
            None => format!("serve.latency.{}.{}", self.kind, self.stage),
        }
    }
}

/// One latency series: a fixed-bin histogram plus the exact running sum
/// (the histogram alone would only bound the sum to bin resolution).
#[derive(Debug, Clone)]
struct LatencySeries {
    hist: Histogram,
    sum_ms: f64,
}

impl LatencySeries {
    fn empty() -> Self {
        LatencySeries {
            hist: Histogram::new(LATENCY_LO_MS, LATENCY_HI_MS, LATENCY_BINS)
                .expect("static latency histogram geometry is valid"),
            sum_ms: 0.0,
        }
    }
}

/// A point-in-time summary of one latency series: observation count,
/// exact sum and p50/p95/p99 estimates (ms). Quantiles are `None` while
/// the series is empty (rendered `NaN` in the exposition, the Prometheus
/// convention for observation-free summaries).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LatencySnapshot {
    pub count: u64,
    pub sum_ms: f64,
    pub p50_ms: Option<f64>,
    pub p95_ms: Option<f64>,
    pub p99_ms: Option<f64>,
}

/// Thread-safe store of per-kind request-latency series.
///
/// The stable surface ([`LATENCY_KINDS`] × [`LATENCY_STAGES`], plus the
/// plan-exec hit/miss split) is pre-seeded at construction; debug kinds
/// create series on first observation.
#[derive(Debug)]
pub(crate) struct LatencyStore {
    series: Mutex<BTreeMap<SeriesKey, LatencySeries>>,
}

impl LatencyStore {
    /// Creates the store with the stable series pre-seeded at zero.
    pub fn new() -> Self {
        let mut series = BTreeMap::new();
        for kind in LATENCY_KINDS {
            for stage in LATENCY_STAGES {
                series.insert(SeriesKey::new(kind, stage), LatencySeries::empty());
            }
        }
        for cache in ["hit", "miss"] {
            let key = SeriesKey {
                cache: Some(cache),
                ..SeriesKey::new("plan", "exec")
            };
            series.insert(key, LatencySeries::empty());
        }
        LatencyStore {
            series: Mutex::new(series),
        }
    }

    /// Records one observation (ms; clamped into the histogram range).
    /// Returns `true` when the sample fell outside the range — callers
    /// increment `serve.latency.overflow` so clamping is never silent.
    pub fn record(&self, key: SeriesKey, ms: f64) -> bool {
        let mut series = self.series.lock().unwrap_or_else(|e| e.into_inner());
        let s = series.entry(key).or_insert_with(LatencySeries::empty);
        let overflow = s.hist.out_of_range(ms);
        s.hist.add(ms);
        s.sum_ms += ms;
        overflow
    }

    /// Snapshots every series (sorted by key) with p50/p95/p99.
    pub fn snapshot(&self) -> Vec<(SeriesKey, LatencySnapshot)> {
        let series = self.series.lock().unwrap_or_else(|e| e.into_inner());
        series
            .iter()
            .map(|(key, s)| {
                (
                    *key,
                    LatencySnapshot {
                        count: s.hist.total(),
                        sum_ms: s.sum_ms,
                        p50_ms: s.hist.quantile(0.5),
                        p95_ms: s.hist.quantile(0.95),
                        p99_ms: s.hist.quantile(0.99),
                    },
                )
            })
            .collect()
    }
}

/// The `serve.*` counters and gauges as JSON objects (the `status`
/// body's and crash reports' snapshot).
pub(crate) fn serve_values(m: &MetricsRegistry) -> (Value, Value) {
    let serve = |name: &&str| name.starts_with("serve.");
    let counters = m.counters().filter(|(n, _)| serve(n));
    let gauges = m.gauges().filter(|(n, _)| serve(n));
    (
        Value::Object(
            counters
                .map(|(n, v)| (n.to_string(), Value::UInt(v)))
                .collect(),
        ),
        Value::Object(
            gauges
                .map(|(n, v)| (n.to_string(), Value::Float(v)))
                .collect(),
        ),
    )
}

/// Maps a dotted metric name onto the Prometheus identifier charset:
/// every character outside `[a-zA-Z0-9]` becomes `_`
/// (`serve.cache.hits` → `serve_cache_hits`).
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Renders the full `serve.*` metric surface in Prometheus text
/// exposition format (version 0.0.4):
///
/// - every counter and gauge becomes its own family (dotted name mapped
///   onto the Prometheus charset), with exactly one `# HELP` and `# TYPE`
///   line each;
/// - a constant `serve_build_info` gauge carries the crate version and
///   the plan/protocol schema versions as labels (the Prometheus
///   build-info idiom: sample value is always 1);
/// - all latency series share the single summary family `serve_latency`,
///   labelled by `kind`, `stage` and (for the plan-exec split) `cache`,
///   with `quantile="0.5" | "0.95" | "0.99"` sample lines plus
///   `serve_latency_sum` / `serve_latency_count`.
pub(crate) fn prometheus_exposition(metrics: &MetricsRegistry, latencies: &LatencyStore) -> String {
    let mut out = String::new();
    let counters = metrics
        .counters()
        .map(|(n, v)| (n, "Counter", v.to_string()));
    let gauges = metrics.gauges().map(|(n, v)| (n, "Gauge", v.to_string()));
    for (name, family, v) in counters.chain(gauges) {
        if name.starts_with("serve.") {
            let fam = prom_name(name);
            let _ = writeln!(out, "# HELP {fam} {family} {name}.");
            let _ = writeln!(out, "# TYPE {fam} {}", family.to_lowercase());
            let _ = writeln!(out, "{fam} {v}");
        }
    }
    let _ = writeln!(
        out,
        "# HELP serve_build_info Build and schema version information."
    );
    let _ = writeln!(out, "# TYPE serve_build_info gauge");
    let _ = writeln!(
        out,
        "serve_build_info{{version=\"{}\",plan_schema=\"{}\",proto=\"{}\"}} 1",
        env!("CARGO_PKG_VERSION"),
        pas_core::PLAN_SCHEMA_VERSION,
        crate::proto::PROTO_VERSION
    );
    let _ = writeln!(out, "# TYPE serve_latency summary");
    for (key, snap) in latencies.snapshot() {
        let cache = key.cache.map(|c| format!(",cache=\"{c}\""));
        let labels = format!(
            "kind=\"{}\",stage=\"{}\"{}",
            key.kind,
            key.stage,
            cache.unwrap_or_default()
        );
        for (q, val) in [
            ("0.5", snap.p50_ms),
            ("0.95", snap.p95_ms),
            ("0.99", snap.p99_ms),
        ] {
            let _ = writeln!(
                out,
                "serve_latency{{{labels},quantile=\"{q}\"}} {}",
                val.map_or("NaN".to_string(), |v| v.to_string())
            );
        }
        let _ = writeln!(out, "serve_latency_sum{{{labels}}} {}", snap.sum_ms);
        let _ = writeln!(out, "serve_latency_count{{{labels}}} {}", snap.count);
    }
    out
}

/// The daemon's one telemetry handle, shared by the front end and the
/// worker pool.
pub(crate) struct Telemetry {
    /// The `serve.*` counter/gauge registry. Handlers count cache hits,
    /// misses, I/O retries and stale serves into it; `status`, `metrics`
    /// and crash reports snapshot it.
    pub metrics: Mutex<MetricsRegistry>,
    /// Per-kind latency series.
    pub latencies: LatencyStore,
    /// The black box that crash reports dump.
    pub flight: FlightRecorder,
    /// `--trace-out`: one Chrome-trace file per request.
    trace_dir: Option<PathBuf>,
    /// `--debug-faults`: a shed dumps a crash report too.
    dump_sheds: bool,
}

impl Telemetry {
    /// A handle for `cfg`, with every lifecycle counter pre-seeded at
    /// zero so the health snapshot always reports the full set — an
    /// operator can tell "never shed" from "not instrumented".
    pub fn new(cfg: &ServeConfig) -> Self {
        let mut metrics = MetricsRegistry::new();
        for name in PRE_SEEDED_COUNTERS {
            metrics.inc(name, 0);
        }
        Telemetry {
            metrics: Mutex::new(metrics),
            latencies: LatencyStore::new(),
            flight: FlightRecorder::new(FLIGHT_CAP, cfg.crash_dir.clone()),
            trace_dir: cfg.trace_dir.as_ref().map(PathBuf::from),
            dump_sheds: cfg.debug_faults,
        }
    }

    /// The locked registry.
    pub fn registry(&self) -> MutexGuard<'_, MetricsRegistry> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds one to counter `name`.
    pub fn count(&self, name: &str) {
        self.registry().inc(name, 1);
    }

    /// Counts one response as `serve.responses.<status>`: the only place
    /// that family grows, once per request line.
    pub fn responded(&self, status: &str) {
        self.count(&format!("serve.responses.{status}"));
    }

    /// Stamps `stage` on `rec`. `ingest` and `dispatch` append their
    /// flight event now, so a crash dump taken later holds them.
    pub fn mark(&self, rec: &Record, stage: Stage) {
        let event = match stage {
            Stage::Ingest => Some("ingest"),
            Stage::Dispatch => Some("dispatch"),
            Stage::Enqueue | Stage::Return => None,
        };
        if let (true, Some(event)) = (rec.stamp(stage), event) {
            self.flight.record(event, &rec.id, rec.kind.name());
        }
    }

    /// Answers a line refused before it became a request: one warn
    /// record and one `error` reply under the minted `id`.
    pub fn refuse(&self, id: &str, rej: &Rejection) -> String {
        log::emit(
            log::Level::Warn,
            "serve.service",
            "request rejected at parse",
            vec![
                ("corr_id", Value::Str(id.to_string())),
                ("code", Value::Str(rej.code.as_str().to_string())),
                ("message", Value::Str(rej.message.clone())),
            ],
        );
        self.responded("error");
        error_response(id, rej)
    }

    /// Closes `rec` with `outcome` and derives everything the request
    /// leaves behind from it; returns the reply line. `queue_depth` sets
    /// the `serve.queue_depth` gauge.
    pub fn finish(&self, rec: &Record, outcome: Outcome, queue_depth: usize) -> String {
        let mut marks = rec.close();
        let kind = rec.kind.name();
        if let Outcome::Timeout(_) = outcome {
            // A worker still running returns after the deadline: no exec
            // sample or span for it.
            marks.returned = None;
        }
        self.fail(rec, &outcome);
        let cache = match (&outcome, marks.cache_hit) {
            (Outcome::Ok(_), Some(hit)) => Some(if hit { "hit" } else { "miss" }),
            _ => None,
        };
        let respond_t0 = Instant::now();
        self.responded(outcome.status());
        let mut reply = outcome.render(&rec.id, rec.kind);
        self.flight.record("respond", &rec.id, kind);
        let ms = |from: Option<Instant>, to: Option<Instant>| {
            Some(to?.saturating_duration_since(from?).as_secs_f64() * 1e3)
        };
        let queue_ms = ms(marks.enqueued, marks.dispatched);
        let exec_ms = ms(marks.dispatched, marks.returned);
        if rec.traced {
            let spans = rec.timeline(marks, (respond_t0, Instant::now()));
            if let Some(dir) = &self.trace_dir {
                write_trace_file(dir, &rec.id, &spans);
            }
            if rec.echo {
                reply = splice_timeline(reply, &spans);
            }
        }
        let total_ms = rec.arrived.elapsed().as_secs_f64() * 1e3;
        self.sample(SeriesKey::new(kind, "queue"), queue_ms);
        self.sample(SeriesKey::new(kind, "exec"), exec_ms);
        // The plan-exec hit/miss split, for ok plan replies only.
        let split = SeriesKey {
            cache,
            ..SeriesKey::new(kind, "exec")
        };
        self.sample(split, exec_ms.filter(|_| cache.is_some()));
        self.sample(SeriesKey::new(kind, "total"), Some(total_ms));
        {
            let mut m = self.registry();
            m.add_gauge(&format!("serve.stage_ms.{kind}"), total_ms);
            m.inc(&format!("serve.handled.{kind}"), 1);
            m.set_gauge("serve.queue_depth", queue_depth as f64);
        }
        log::emit(
            log::Level::Debug,
            "serve.service",
            "request answered",
            vec![
                ("kind", Value::Str(kind.to_string())),
                ("elapsed_ms", Value::Float(total_ms)),
            ],
        );
        reply
    }

    /// The one failure path: a shed, timeout or panic appends its flight
    /// event, logs its line, counts its counters and, when it dumps,
    /// writes a crash report.
    fn fail(&self, rec: &Record, outcome: &Outcome) {
        use log::Level::{Error, Warn};
        let (detail, (level, target, msg), field, trigger, counters): (String, _, _, _, &[&str]) =
            match outcome {
                // Sheds are load signals, not faults; they dump a black
                // box only when the operator opted into fault debugging.
                Outcome::Shed(depth) => (
                    format!("queue depth {depth}"),
                    (Warn, "serve.service", "request shed"),
                    ("depth", Value::UInt(*depth as u64)),
                    self.dump_sheds.then_some("PAS0504"),
                    &["serve.shed"],
                ),
                Outcome::Timeout(ms) => (
                    format!("{ms} ms deadline"),
                    (Warn, "serve.service", "request deadline expired"),
                    ("timeout_ms", Value::UInt(*ms)),
                    Some("PAS0505"),
                    &["serve.timeouts"],
                ),
                // catch_unwind recovered the worker in place — the same
                // accounting slot a respawn would fill.
                Outcome::Panic(detail) => (
                    detail.clone(),
                    (Error, "serve.pool", "worker panic contained"),
                    ("detail", Value::Str(detail.clone())),
                    Some("PAS0506"),
                    &["serve.panics", "serve.worker_recoveries"],
                ),
                Outcome::Ok(_) | Outcome::Error(_) => return,
            };
        // A panic's crash report counts the panic; a shed's or a
        // timeout's is taken before they are counted.
        let (before, after) = match outcome {
            Outcome::Panic(_) => (counters, &[][..]),
            _ => (&[][..], counters),
        };
        before.iter().for_each(|name| self.count(name));
        self.flight.record(outcome.status(), &rec.id, &detail);
        let kind = ("kind", Value::Str(rec.kind.name().to_string()));
        log::emit(level, target, msg, vec![kind, field]);
        if let Some(trigger) = trigger {
            if (self.flight)
                .dump(trigger, &rec.id, &rec.raw, &self.metrics)
                .is_some()
            {
                self.count("serve.crash_reports");
            }
        }
        after.iter().for_each(|name| self.count(name));
    }

    /// Records one latency sample, when there is one, tallying
    /// `serve.latency.overflow` when it fell beyond the histogram range
    /// (it still lands, clamped, in the top bin — but not silently).
    fn sample(&self, key: SeriesKey, ms: Option<f64>) {
        if ms.is_some_and(|ms| self.latencies.record(key, ms)) {
            self.count("serve.latency.overflow");
        }
    }
}

/// Writes one Chrome-trace file per request under `--trace-out`; a
/// failed write is logged and dropped, never fatal.
fn write_trace_file(dir: &Path, id: &str, spans: &[SpanRecord]) {
    let write = std::fs::create_dir_all(dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("{}.trace.json", sanitize_id(id))),
            pas_obs::profile::chrome_trace(spans),
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

/// Appends the timeline to a rendered reply as its last member; the rest
/// of the reply keeps its bytes.
fn splice_timeline(reply: String, spans: &[SpanRecord]) -> String {
    match (
        reply.strip_suffix('}'),
        serde_json::to_string(&timeline_value(spans)),
    ) {
        (Some(head), Ok(timeline)) => format!("{head},\"timeline\":{timeline}}}"),
        _ => reply,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn store_pre_seeds_the_stable_surface_at_zero() {
        let store = LatencyStore::new();
        let snaps = store.snapshot();
        // 4 kinds × 3 stages + plan-exec hit/miss.
        assert_eq!(snaps.len(), LATENCY_KINDS.len() * LATENCY_STAGES.len() + 2);
        for (key, snap) in &snaps {
            assert_eq!(snap.count, 0, "{}", key.dotted());
            assert!(snap.p50_ms.is_none(), "{}", key.dotted());
        }
        let dotted: BTreeSet<String> = snaps.iter().map(|(k, _)| k.dotted()).collect();
        assert!(dotted.contains("serve.latency.plan.exec.hit"));
        assert!(dotted.contains("serve.latency.trace.total"));
    }

    #[test]
    fn recorded_latencies_surface_in_quantiles_and_sums() {
        let store = LatencyStore::new();
        let key = SeriesKey::new("plan", "exec");
        for ms in [1.0, 2.0, 3.0, 4.0, 100.0] {
            store.record(key, ms);
        }
        let snaps = store.snapshot();
        let (_, snap) = snaps
            .iter()
            .find(|(k, _)| *k == key)
            .expect("series exists");
        assert_eq!(snap.count, 5);
        assert!((snap.sum_ms - 110.0).abs() < 1e-9);
        let p50 = snap.p50_ms.expect("non-empty");
        let p99 = snap.p99_ms.expect("non-empty");
        assert!(p50 < 10.0, "p50={p50}");
        assert!(p99 >= p50, "p99={p99} p50={p50}");
    }

    #[test]
    fn unknown_series_are_created_on_demand() {
        let store = LatencyStore::new();
        store.record(SeriesKey::new("debug-sleep", "exec"), 7.0);
        let snaps = store.snapshot();
        assert!(snaps
            .iter()
            .any(|(k, s)| k.dotted() == "serve.latency.debug-sleep.exec" && s.count == 1));
    }

    #[test]
    fn exposition_has_one_type_line_per_family() {
        let mut m = MetricsRegistry::new();
        for name in PRE_SEEDED_COUNTERS {
            m.inc(name, 0);
        }
        m.inc("serve.requests", 3);
        m.set_gauge("serve.queue_depth", 2.0);
        let store = LatencyStore::new();
        store.record(SeriesKey::new("run", "total"), 5.0);
        let text = prometheus_exposition(&m, &store);

        let type_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        let unique: BTreeSet<&str> = type_lines.iter().copied().collect();
        assert_eq!(type_lines.len(), unique.len(), "duplicate # TYPE family");
        assert!(text.contains("# TYPE serve_requests counter"), "{text}");
        assert!(text.contains("serve_requests 3"), "{text}");
        assert!(text.contains("# TYPE serve_queue_depth gauge"), "{text}");
        assert!(text.contains("# TYPE serve_latency summary"), "{text}");
        assert!(
            text.contains("serve_latency_count{kind=\"run\",stage=\"total\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("serve_latency{kind=\"plan\",stage=\"queue\",quantile=\"0.5\"} NaN"),
            "{text}"
        );
        assert!(
            text.contains("serve_latency_count{kind=\"plan\",stage=\"exec\",cache=\"hit\"} 0"),
            "{text}"
        );
        // Dotted names never leak into sample lines.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split([' ', '{']).next().unwrap_or("");
            assert!(!name.contains('.'), "unmangled name in: {line}");
        }
    }

    #[test]
    fn pre_seeded_catalog_matches_the_legacy_fifteen_plus_request_ids() {
        assert_eq!(PRE_SEEDED_COUNTERS.len(), 19);
        assert!(PRE_SEEDED_COUNTERS.contains(&"serve.request_ids.generated"));
        assert!(PRE_SEEDED_COUNTERS.contains(&"serve.request_ids.client"));
        assert!(PRE_SEEDED_COUNTERS.contains(&"serve.latency.overflow"));
        assert!(PRE_SEEDED_COUNTERS.contains(&"serve.crash_reports"));
        let unique: BTreeSet<&str> = PRE_SEEDED_COUNTERS.iter().copied().collect();
        assert_eq!(unique.len(), PRE_SEEDED_COUNTERS.len());
    }

    #[test]
    fn record_reports_out_of_range_samples() {
        let store = LatencyStore::new();
        let key = SeriesKey::new("run", "exec");
        assert!(!store.record(key, 5.0));
        assert!(store.record(key, 10_001.0));
        assert!(store.record(key, -1.0));
        // Overflowing samples still land (clamped) in the series.
        let snaps = store.snapshot();
        let (_, snap) = snaps
            .iter()
            .find(|(k, _)| *k == key)
            .expect("series exists");
        assert_eq!(snap.count, 3);
    }

    #[test]
    fn exposition_carries_the_build_info_gauge() {
        let m = MetricsRegistry::new();
        let store = LatencyStore::new();
        let text = prometheus_exposition(&m, &store);
        assert!(text.contains("# TYPE serve_build_info gauge"), "{text}");
        let line = text
            .lines()
            .find(|l| l.starts_with("serve_build_info{"))
            .expect("build info sample");
        assert!(line.contains(concat!("version=\"", env!("CARGO_PKG_VERSION"), "\"")));
        assert!(line.contains("plan_schema=\"1\""), "{line}");
        assert!(line.contains("proto=\"1\""), "{line}");
        assert!(line.ends_with("} 1"), "{line}");
    }
}

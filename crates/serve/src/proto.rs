//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request is one JSON object on one line; the service answers with
//! exactly one JSON object on one line. The schema is a documented
//! on-disk contract (see `docs/service.md`) and is policed like the
//! others: malformed input never panics the daemon, it produces a
//! structured `PAS05xx` error response (the service-side equivalent of
//! `pas check`'s exit 2).
//!
//! Parsing is hand-rolled over the [`Value`] tree rather than derived so
//! that every missing field and out-of-range parameter can name itself
//! in a `PAS0503` diagnostic instead of surfacing as a generic
//! deserialization error.

use pas_analyze::{Code, Report};
use pas_core::Scheme;
use serde::Value;

/// Version of the request/response wire schema; bumped on breaking
/// changes, echoed in every response.
pub const PROTO_VERSION: u32 = 1;

/// Default `montecarlo` batch size when the request omits `batch`.
pub const DEFAULT_BATCH: usize = 1024;

/// Upper bound on `batch` per request: one `montecarlo` job must stay a
/// bounded unit of work on the shared worker pool (larger sweeps slice
/// with `start_index`, which is draw-stable by construction).
pub const MAX_BATCH: usize = 65_536;

/// What a request asks the service to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Build (or fetch from cache) the offline [`pas_core::PlanArtifact`]
    /// for a (workload, platform, scheme) triple.
    Plan,
    /// Run the full static-analysis pipeline and return the report.
    Check,
    /// Simulate one seeded realization and return the run summary.
    Run,
    /// Simulate one seeded realization under observation and return the
    /// event-stream digest (per-kind counts, energy, horizon).
    Trace,
    /// Run a batched Monte-Carlo sweep (`batch` realizations through the
    /// batched engine) and return distribution summaries: energy and
    /// makespan quantiles, miss rate with CI, per-section energy
    /// quantiles.
    Montecarlo,
    /// Health snapshot: queue depth, counters, cache stats, latencies.
    Status,
    /// The full `serve.*` metric surface rendered in Prometheus text
    /// exposition format (see `docs/observability.md`).
    Metrics,
    /// Ask the daemon to drain and exit cleanly.
    Shutdown,
    /// Debug-only (requires `--debug-faults`): panic inside the handler.
    DebugPanic,
    /// Debug-only: hold a worker for `sleep_ms`, checking cancellation.
    DebugSleep,
    /// Debug-only: fail with a typed simulation error.
    DebugFail,
}

impl ReqKind {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            ReqKind::Plan => "plan",
            ReqKind::Check => "check",
            ReqKind::Run => "run",
            ReqKind::Trace => "trace",
            ReqKind::Montecarlo => "montecarlo",
            ReqKind::Status => "status",
            ReqKind::Metrics => "metrics",
            ReqKind::Shutdown => "shutdown",
            ReqKind::DebugPanic => "debug-panic",
            ReqKind::DebugSleep => "debug-sleep",
            ReqKind::DebugFail => "debug-fail",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "plan" => ReqKind::Plan,
            "check" => ReqKind::Check,
            "run" => ReqKind::Run,
            "trace" => ReqKind::Trace,
            "montecarlo" => ReqKind::Montecarlo,
            "status" => ReqKind::Status,
            "metrics" => ReqKind::Metrics,
            "shutdown" => ReqKind::Shutdown,
            "debug-panic" => ReqKind::DebugPanic,
            "debug-sleep" => ReqKind::DebugSleep,
            "debug-fail" => ReqKind::DebugFail,
            _ => return None,
        })
    }
}

/// Where the request's workload comes from.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// A built-in workload, one of [`workloads::BUILTIN_NAMES`].
    Builtin(String),
    /// An inline graph object (the serde form of
    /// [`andor_graph::AndOrGraph`]) embedded in the request.
    Inline(Value),
    /// A JSON file on the daemon's filesystem.
    Path(String),
}

/// A parsed, validated request envelope.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: String,
    /// The operation.
    pub kind: ReqKind,
    /// Workload source (`workload` string field or inline `graph`).
    pub workload: WorkloadSpec,
    /// Platform spec: `transmeta`, `xscale`, `continuous:<smin>`.
    pub platform: String,
    /// Processor count.
    pub procs: usize,
    /// Target load in `(0, 1]` (mutually exclusive with `deadline_ms`).
    pub load: Option<f64>,
    /// Explicit deadline in ms.
    pub deadline_ms: Option<f64>,
    /// Scheme for `plan`/`run`/`trace`.
    pub scheme: Scheme,
    /// RNG seed for `run`/`trace` (and `atr` jitter); the base seed of a
    /// `montecarlo` batch.
    pub seed: u64,
    /// `montecarlo`: realizations to run (capped at [`MAX_BATCH`]).
    pub batch: usize,
    /// `montecarlo`: global index of the first realization — slices of
    /// one logical batch submitted as separate requests draw exactly the
    /// realizations the full batch would (see `docs/simulator.md`).
    /// `start_index + batch` must fit in a `u64` (`PAS0503` otherwise).
    pub start_index: u64,
    /// Per-request deadline; `None` uses the service default.
    pub timeout_ms: Option<u64>,
    /// `plan`: rebuild even on a cache hit (re-derivation; on failure
    /// the cached plan is served `stale: true`).
    pub revalidate: bool,
    /// `debug-sleep`: how long to hold the worker.
    pub sleep_ms: u64,
    /// `plan` + `--debug-faults`: simulate a re-derivation failure (the
    /// deterministic trigger for the stale-plan degradation path).
    pub fail_build: bool,
    /// Echo the request's span timeline (queue wait, validation, cache
    /// lookup, execution, ...) in the response as a `timeline` array.
    pub trace: bool,
}

/// A structured refusal: the `PAS05xx` code, a message, and optionally
/// the full `pas-analyze` report that triggered it (ingest validation).
#[derive(Debug, Clone)]
pub struct Rejection {
    /// The service diagnostic describing the failure class.
    pub code: Code,
    /// Human-readable specifics.
    pub message: String,
    /// Ingest-validation findings, when the refusal came from the
    /// static-analysis pass.
    pub diagnostics: Option<Report>,
}

impl Rejection {
    /// A rejection with no attached report.
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Rejection {
            code,
            message: message.into(),
            diagnostics: None,
        }
    }

    /// A `PAS0503` invalid-parameter rejection.
    pub fn bad_param(message: impl Into<String>) -> Self {
        Rejection::new(Code::Pas0503, message)
    }
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn str_field(v: &Value, name: &str) -> Result<Option<String>, Rejection> {
    match v.get(name) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(Rejection::bad_param(format!("`{name}` must be a string"))),
    }
}

fn f64_field(v: &Value, name: &str) -> Result<Option<f64>, Rejection> {
    match v.get(name) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_f64()
            .map(Some)
            .ok_or_else(|| Rejection::bad_param(format!("`{name}` must be a number"))),
    }
}

fn u64_field(v: &Value, name: &str) -> Result<Option<u64>, Rejection> {
    match v.get(name) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x.as_u64().map(Some).ok_or_else(|| {
            Rejection::bad_param(format!("`{name}` must be a non-negative integer"))
        }),
    }
}

fn bool_field(v: &Value, name: &str) -> Result<bool, Rejection> {
    match v.get(name) {
        None | Some(Value::Null) => Ok(false),
        Some(Value::Bool(b)) => Ok(*b),
        Some(_) => Err(Rejection::bad_param(format!("`{name}` must be a boolean"))),
    }
}

/// Parses one request line. Every failure maps to a `PAS05xx` code:
/// `PAS0501` for malformed JSON, `PAS0502` for an unknown kind,
/// `PAS0503` for missing/invalid fields.
pub fn parse_request(line: &str) -> Result<Request, Rejection> {
    let v: Value = serde_json::from_str(line)
        .map_err(|e| Rejection::new(Code::Pas0501, format!("request is not valid JSON: {e}")))?;
    if v.as_object().is_none() {
        return Err(Rejection::new(
            Code::Pas0501,
            "request must be a JSON object",
        ));
    }
    let id = str_field(&v, "id")?.unwrap_or_else(|| "-".to_string());
    let kind_name = str_field(&v, "kind")?
        .ok_or_else(|| Rejection::bad_param("missing required field `kind`"))?;
    let kind = ReqKind::parse(&kind_name)
        .ok_or_else(|| Rejection::new(Code::Pas0502, format!("unknown kind '{kind_name}'")))?;

    let workload = match (str_field(&v, "workload")?, v.get("graph")) {
        (Some(_), Some(g)) if *g != Value::Null => {
            return Err(Rejection::bad_param(
                "`workload` and `graph` are mutually exclusive",
            ))
        }
        (Some(w), _) if workloads::BUILTIN_NAMES.contains(&w.as_str()) => WorkloadSpec::Builtin(w),
        (Some(w), _) => WorkloadSpec::Path(w),
        (None, Some(g)) if *g != Value::Null => WorkloadSpec::Inline(g.clone()),
        (None, _) => WorkloadSpec::Builtin("synthetic".to_string()),
    };

    let platform = str_field(&v, "platform")?.unwrap_or_else(|| "transmeta".to_string());
    let procs = match u64_field(&v, "procs")? {
        None => 2,
        Some(0) => return Err(Rejection::bad_param("`procs` must be positive")),
        Some(p) => usize::try_from(p).map_err(|_| Rejection::bad_param("`procs` out of range"))?,
    };
    let load = f64_field(&v, "load")?;
    if load.is_some_and(|l| pas_core::PlanError::check_load(l).is_err()) {
        return Err(Rejection::bad_param("`load` must be in (0, 1]"));
    }
    let deadline_ms = f64_field(&v, "deadline_ms")?;
    if load.is_some() && deadline_ms.is_some() {
        return Err(Rejection::bad_param(
            "`load` and `deadline_ms` are mutually exclusive",
        ));
    }
    let scheme = match str_field(&v, "scheme")? {
        None => Scheme::Gss,
        Some(s) => Scheme::parse(&s)
            .ok_or_else(|| Rejection::bad_param(format!("unknown scheme '{s}'")))?,
    };
    let seed = u64_field(&v, "seed")?.unwrap_or(42);
    let batch = match u64_field(&v, "batch")? {
        None => DEFAULT_BATCH,
        Some(0) => return Err(Rejection::bad_param("`batch` must be positive")),
        Some(b) if b > MAX_BATCH as u64 => {
            return Err(Rejection::bad_param(format!(
                "`batch` must be at most {MAX_BATCH} per request (slice with `start_index`)"
            )))
        }
        Some(b) => b as usize,
    };
    let start_index = u64_field(&v, "start_index")?.unwrap_or(0);
    if start_index.checked_add(batch as u64).is_none() {
        return Err(Rejection::bad_param(
            "`start_index + batch` must not exceed 2^64 - 1",
        ));
    }
    let timeout_ms = u64_field(&v, "timeout_ms")?;
    if timeout_ms == Some(0) {
        return Err(Rejection::bad_param("`timeout_ms` must be positive"));
    }
    Ok(Request {
        id,
        kind,
        workload,
        platform,
        procs,
        load,
        deadline_ms,
        scheme,
        seed,
        batch,
        start_index,
        timeout_ms,
        revalidate: bool_field(&v, "revalidate")?,
        sleep_ms: u64_field(&v, "sleep_ms")?.unwrap_or(0),
        fail_build: bool_field(&v, "fail_build")?,
        trace: bool_field(&v, "trace")?,
    })
}

pub(crate) fn report_value(report: &Report) -> Value {
    Value::Array(
        report
            .diagnostics
            .iter()
            .map(|d| {
                obj(vec![
                    ("code", Value::Str(d.code.as_str().to_string())),
                    ("severity", Value::Str(d.severity.label().to_string())),
                    ("source", Value::Str(d.loc.source.clone())),
                    ("path", Value::Str(d.loc.path.clone())),
                    ("message", Value::Str(d.message.clone())),
                ])
            })
            .collect(),
    )
}

fn envelope(id: &str, status: &str, extra: Vec<(&str, Value)>) -> String {
    let mut pairs = vec![
        ("proto", Value::UInt(u64::from(PROTO_VERSION))),
        ("id", Value::Str(id.to_string())),
        ("status", Value::Str(status.to_string())),
    ];
    pairs.extend(extra);
    serde_json::to_string(&obj(pairs)).unwrap_or_else(|_| {
        // Unreachable: Value serialization is total. Kept total anyway.
        format!("{{\"proto\":{PROTO_VERSION},\"id\":\"{id}\",\"status\":\"error\"}}")
    })
}

/// A successful response: `status: "ok"` with a kind-specific body.
pub fn ok_response(id: &str, kind: ReqKind, body: Value) -> String {
    envelope(
        id,
        "ok",
        vec![
            ("kind", Value::Str(kind.name().to_string())),
            ("body", body),
        ],
    )
}

/// A structured failure: `status: "error"` with the `PAS05xx` code, the
/// message, and any attached ingest diagnostics.
pub fn error_response(id: &str, rej: &Rejection) -> String {
    let mut extra = vec![
        ("code", Value::Str(rej.code.as_str().to_string())),
        ("message", Value::Str(rej.message.clone())),
    ];
    if let Some(report) = &rej.diagnostics {
        extra.push(("diagnostics", report_value(report)));
    }
    envelope(id, "error", extra)
}

/// Back-pressure refusal: `status: "shed"` (`PAS0504`) with a
/// retry-after hint. The request was never queued.
pub fn shed_response(id: &str, retry_after_ms: u64, depth: usize) -> String {
    envelope(
        id,
        "shed",
        vec![
            ("code", Value::Str(Code::Pas0504.as_str().to_string())),
            (
                "message",
                Value::Str(format!(
                    "queue full ({depth} requests deep); retry in {retry_after_ms} ms"
                )),
            ),
            ("retry_after_ms", Value::UInt(retry_after_ms)),
        ],
    )
}

/// Deadline refusal: `status: "timeout"` (`PAS0505`). The request was
/// cancelled; if it was still queued, the worker skips it.
pub fn timeout_response(id: &str, timeout_ms: u64) -> String {
    envelope(
        id,
        "timeout",
        vec![
            ("code", Value::Str(Code::Pas0505.as_str().to_string())),
            (
                "message",
                Value::Str(format!("request exceeded its {timeout_ms} ms deadline")),
            ),
            ("timeout_ms", Value::UInt(timeout_ms)),
        ],
    )
}

/// Panic containment: `status: "panic"` (`PAS0506`). The worker caught
/// the unwind and kept serving.
pub fn panic_response(id: &str, detail: &str) -> String {
    envelope(
        id,
        "panic",
        vec![
            ("code", Value::Str(Code::Pas0506.as_str().to_string())),
            (
                "message",
                Value::Str(format!("request handler panicked: {detail}")),
            ),
        ],
    )
}

/// Builds a JSON object value from string keys (handler helper).
pub fn object(pairs: Vec<(&str, Value)>) -> Value {
    obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_gets_defaults() {
        let r = parse_request(r#"{"id":"a","kind":"run"}"#).expect("parses");
        assert_eq!(r.id, "a");
        assert_eq!(r.kind, ReqKind::Run);
        assert!(matches!(&r.workload, WorkloadSpec::Builtin(n) if n == "synthetic"));
        assert_eq!(r.platform, "transmeta");
        assert_eq!(r.procs, 2);
        assert_eq!(r.scheme, Scheme::Gss);
        assert_eq!(r.seed, 42);
        assert_eq!(r.batch, DEFAULT_BATCH);
        assert_eq!(r.start_index, 0);
        assert!(r.timeout_ms.is_none());
        assert!(!r.revalidate);
        assert!(!r.trace);
    }

    #[test]
    fn montecarlo_batch_parses_and_is_capped() {
        let r = parse_request(r#"{"kind":"montecarlo","batch":512,"start_index":2048}"#)
            .expect("parses");
        assert_eq!(r.kind, ReqKind::Montecarlo);
        assert_eq!(r.batch, 512);
        assert_eq!(r.start_index, 2048);
        // The last index, start_index + batch - 1, may be u64::MAX - 1.
        let r =
            parse_request(r#"{"kind":"montecarlo","batch":2,"start_index":18446744073709551613}"#)
                .expect("parses");
        assert_eq!(r.start_index, u64::MAX - 2);
        for line in [
            r#"{"kind":"montecarlo","batch":0}"#,
            r#"{"kind":"montecarlo","batch":100000}"#,
            r#"{"kind":"montecarlo","batch":-3}"#,
        ] {
            let rej = parse_request(line).expect_err(line);
            assert_eq!(rej.code, Code::Pas0503, "{line}");
        }
    }

    #[test]
    fn trace_flag_parses_and_rejects_non_booleans() {
        let r = parse_request(r#"{"id":"t","kind":"run","trace":true}"#).expect("parses");
        assert!(r.trace);
        let rej = parse_request(r#"{"kind":"run","trace":1}"#).expect_err("rejected");
        assert_eq!(rej.code, Code::Pas0503);
    }

    #[test]
    fn malformed_json_is_pas0501() {
        let rej = parse_request("{not json").expect_err("rejected");
        assert_eq!(rej.code, Code::Pas0501);
        let rej = parse_request("[1,2]").expect_err("rejected");
        assert_eq!(rej.code, Code::Pas0501);
    }

    #[test]
    fn unknown_kind_is_pas0502() {
        let rej = parse_request(r#"{"kind":"frobnicate"}"#).expect_err("rejected");
        assert_eq!(rej.code, Code::Pas0502);
        assert!(rej.message.contains("frobnicate"), "{}", rej.message);
    }

    #[test]
    fn bad_parameters_are_pas0503() {
        for line in [
            r#"{}"#,
            r#"{"kind":"run","procs":0}"#,
            r#"{"kind":"run","load":1.5}"#,
            r#"{"kind":"run","load":0.5,"deadline_ms":40}"#,
            r#"{"kind":"run","scheme":"warp"}"#,
            r#"{"kind":"run","timeout_ms":0}"#,
            r#"{"kind":"run","workload":"atr","graph":{"nodes":[]}}"#,
            r#"{"kind":"run","procs":"two"}"#,
            r#"{"kind":"montecarlo","batch":2,"start_index":18446744073709551615}"#,
        ] {
            let rej = parse_request(line).expect_err(line);
            assert_eq!(rej.code, Code::Pas0503, "{line}");
        }
    }

    #[test]
    fn workload_classification() {
        let r = parse_request(r#"{"kind":"plan","workload":"atr"}"#).expect("parses");
        assert!(matches!(&r.workload, WorkloadSpec::Builtin(n) if n == "atr"));
        let r = parse_request(r#"{"kind":"plan","workload":"w.json"}"#).expect("parses");
        assert!(matches!(&r.workload, WorkloadSpec::Path(p) if p == "w.json"));
        let r = parse_request(r#"{"kind":"plan","graph":{"nodes":[]}}"#).expect("parses");
        assert!(matches!(&r.workload, WorkloadSpec::Inline(_)));
    }

    #[test]
    fn responses_are_single_json_lines_with_the_envelope() {
        let ok = ok_response("r1", ReqKind::Plan, Value::Null);
        let v: Value = serde_json::from_str(&ok).expect("valid JSON");
        assert_eq!(v.get("id").and_then(Value::as_str), Some("r1"));
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(v.get("proto").and_then(Value::as_u64), Some(1));
        assert!(!ok.contains('\n'));

        let shed = shed_response("r2", 50, 64);
        let v: Value = serde_json::from_str(&shed).expect("valid JSON");
        assert_eq!(v.get("status").and_then(Value::as_str), Some("shed"));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("PAS0504"));
        assert_eq!(v.get("retry_after_ms").and_then(Value::as_u64), Some(50));

        let to = timeout_response("r3", 25);
        assert!(to.contains("PAS0505"), "{to}");
        let p = panic_response("r4", "boom");
        assert!(p.contains("PAS0506"), "{p}");
        assert!(p.contains("boom"), "{p}");

        let mut rej = Rejection::bad_param("missing field");
        rej.diagnostics = Some(Report::new());
        let err = error_response("r5", &rej);
        let v: Value = serde_json::from_str(&err).expect("valid JSON");
        assert_eq!(v.get("code").and_then(Value::as_str), Some("PAS0503"));
        assert!(v.get("diagnostics").is_some());
    }
}

//! Flight-recorder determinism: an injected `PAS0506` debug-panic must
//! dump a schema-valid crash report naming the offending request's
//! correlation id and carrying exactly the last-N black-box events, and
//! `status` must account for it.

use pas_serve::{ServeConfig, Service, CRASH_SCHEMA_VERSION};
use serde::Value;
use std::path::PathBuf;

/// The flight recorder's fixed ring capacity (lifecycle events kept).
const FLIGHT_CAP: usize = 64;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pas-flight-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

#[test]
fn debug_panic_dumps_a_deterministic_crash_report() {
    let crash_dir = temp_dir("panic");
    // One worker makes handle_line fully synchronous per request, so
    // the black-box contents at dump time are deterministic.
    let svc = Service::start(ServeConfig {
        workers: 1,
        queue_cap: 8,
        default_timeout_ms: 30_000,
        debug_faults: true,
        crash_dir: Some(crash_dir.to_string_lossy().to_string()),
        ..ServeConfig::default()
    });

    // 21 clean requests: each leaves ingest, dispatch, respond.
    for i in 0..21 {
        let resp = svc.handle_line(&format!(
            r#"{{"id":"warm-{i}","kind":"run","workload":"synthetic"}}"#
        ));
        assert!(resp.contains("\"status\":\"ok\""), "{resp}");
    }
    // The offender: ingest, dispatch, then panic — and the dump happens
    // inside the worker, before the respond event is recorded.
    let resp = with_quiet_panics(|| svc.handle_line(r#"{"id":"boom-7","kind":"debug-panic"}"#));
    assert!(resp.contains("PAS0506"), "{resp}");

    // Exactly one report, named after the offending correlation id.
    let report_path = svc.flight().last_crash_path().expect("report written");
    assert_eq!(svc.flight().crash_count(), 1);
    assert!(report_path.contains("crash-1-boom-7"), "{report_path}");
    assert_eq!(svc.counter("serve.crash_reports"), 1);

    let text = std::fs::read_to_string(&report_path).expect("report readable");
    let v: Value = serde_json::from_str(&text).expect("report is valid JSON");
    assert_eq!(
        v.get("crash_schema").and_then(Value::as_u64),
        Some(u64::from(CRASH_SCHEMA_VERSION))
    );
    assert_eq!(v.get("trigger").and_then(Value::as_str), Some("PAS0506"));
    assert_eq!(v.get("corr_id").and_then(Value::as_str), Some("boom-7"));
    let raw = v.get("request").and_then(Value::as_str).expect("request");
    assert!(raw.contains("debug-panic"), "{raw}");

    // 21 clean requests × (ingest, dispatch, respond) + the offender's
    // (ingest, dispatch, panic) = 66 events through the capacity-64
    // ring: the report holds exactly the last 64, from the first
    // request's respond to the panic.
    let events = v.get("events").and_then(Value::as_array).expect("events");
    assert_eq!(events.len(), FLIGHT_CAP, "{text}");
    let kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("kind").and_then(Value::as_str))
        .collect();
    let mut want = vec!["respond"];
    for _ in 0..20 {
        want.extend(["ingest", "dispatch", "respond"]);
    }
    want.extend(["ingest", "dispatch", "panic"]);
    assert_eq!(kinds, want, "{text}");
    let seqs: Vec<u64> = events
        .iter()
        .filter_map(|e| e.get("seq").and_then(Value::as_u64))
        .collect();
    assert_eq!(seqs, (3..=66).collect::<Vec<u64>>(), "{text}");
    assert_eq!(
        events[FLIGHT_CAP - 1]
            .get("corr_id")
            .and_then(Value::as_str),
        Some("boom-7")
    );

    // Counter snapshot was taken at dump time: the panic is in it.
    let counters = v.get("counters").expect("counters");
    assert_eq!(
        counters.get("serve.panics").and_then(Value::as_u64),
        Some(1),
        "{text}"
    );
    assert!(v.get("gauges").and_then(Value::as_object).is_some());
    assert!(v.get("log_tail").and_then(Value::as_array).is_some());
    assert!(v.get("t_wall_ms").and_then(Value::as_u64).is_some());

    // `status` reports the crash bookkeeping.
    let status = svc.handle_line(r#"{"id":"s","kind":"status"}"#);
    let sv: Value = serde_json::from_str(&status).expect("valid JSON");
    let crashes = sv
        .get("body")
        .and_then(|b| b.get("crashes"))
        .expect("crashes block");
    assert_eq!(crashes.get("count"), Some(&Value::UInt(1)), "{status}");
    assert_eq!(
        crashes.get("last_path").and_then(Value::as_str),
        Some(report_path.as_str()),
        "{status}"
    );

    assert_eq!(svc.shutdown(), 0);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

#[test]
fn timeout_dumps_a_pas0505_report() {
    let crash_dir = temp_dir("timeout");
    let svc = Service::start(ServeConfig {
        workers: 1,
        queue_cap: 8,
        debug_faults: true,
        crash_dir: Some(crash_dir.to_string_lossy().to_string()),
        ..ServeConfig::default()
    });
    let resp =
        svc.handle_line(r#"{"id":"slow-1","kind":"debug-sleep","sleep_ms":60000,"timeout_ms":40}"#);
    assert!(resp.contains("PAS0505"), "{resp}");
    let path = svc.flight().last_crash_path().expect("report written");
    let text = std::fs::read_to_string(&path).expect("readable");
    let v: Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(v.get("trigger").and_then(Value::as_str), Some("PAS0505"));
    assert_eq!(v.get("corr_id").and_then(Value::as_str), Some("slow-1"));
    assert_eq!(svc.counter("serve.crash_reports"), 1);
    assert_eq!(svc.shutdown(), 0);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

#[test]
fn trace_out_writes_a_chrome_trace_file_per_request() {
    let trace_dir = temp_dir("traces");
    let svc = Service::start(ServeConfig {
        workers: 1,
        trace_dir: Some(trace_dir.to_string_lossy().to_string()),
        ..ServeConfig::default()
    });
    let resp = svc.handle_line(r#"{"id":"tr-1","kind":"run","workload":"synthetic"}"#);
    assert!(resp.contains("\"status\":\"ok\""), "{resp}");
    // --trace-out alone does not echo the timeline in the response.
    let v: Value = serde_json::from_str(&resp).expect("valid JSON");
    assert!(v.get("timeline").is_none(), "{resp}");

    let doc = std::fs::read_to_string(trace_dir.join("tr-1.trace.json")).expect("trace file");
    let parsed: Value = serde_json::from_str(&doc).expect("valid chrome trace");
    let events = parsed
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents");
    let spans: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    for required in ["req.ingest", "req.queue_wait", "req.exec", "req.respond"] {
        assert!(spans.contains(&required), "missing {required}: {spans:?}");
    }
    assert_eq!(svc.shutdown(), 0);
    let _ = std::fs::remove_dir_all(&trace_dir);
}

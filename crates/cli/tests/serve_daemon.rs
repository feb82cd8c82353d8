//! The `pas serve` daemon end to end: start the release-shaped binary on
//! an ephemeral TCP port with fault injection, structured logs, crash
//! reports and per-request traces; drive a round trip of every request
//! kind over TCP; stop it with `SIGTERM`; then check the clean drain, the
//! crash report, the log file and the trace files.

#![cfg(unix)]

use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn pas() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pas"))
}

fn scratch_dir() -> PathBuf {
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("serve-daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Polls `log` until the daemon's `listening` record names its address.
fn bound_addr(child: &mut Child, log: &Path) -> String {
    let t0 = Instant::now();
    loop {
        let text = std::fs::read_to_string(log).unwrap_or_default();
        let listening = text
            .lines()
            .filter_map(|l| serde_json::from_str::<Value>(l).ok())
            .find(|r| r.get("msg").and_then(Value::as_str) == Some("listening"));
        if let Some(addr) = listening
            .as_ref()
            .and_then(|r| r.get("fields")?.get("addr")?.as_str())
        {
            return addr.to_string();
        }
        if let Some(status) = child.try_wait().expect("poll daemon") {
            panic!("daemon exited early: {status}");
        }
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "no listening record"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One request per connection; returns the parsed reply line.
fn ask(addr: &str, req: &str) -> Value {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    s.write_all(format!("{req}\n").as_bytes()).expect("send");
    let mut line = String::new();
    BufReader::new(s).read_line(&mut line).expect("reply");
    serde_json::from_str(&line).unwrap_or_else(|e| panic!("{e}: {line}"))
}

fn get<'a>(v: &'a Value, path: &[&str]) -> &'a Value {
    path.iter().fold(v, |v, k| {
        v.get(k)
            .unwrap_or_else(|| panic!("missing {path:?} in {v:?}"))
    })
}

fn str_at<'a>(v: &'a Value, path: &[&str]) -> &'a str {
    get(v, path).as_str().unwrap_or_else(|| panic!("{path:?}"))
}

fn u64_at(v: &Value, path: &[&str]) -> u64 {
    get(v, path).as_u64().unwrap_or_else(|| panic!("{path:?}"))
}

fn is_ok(v: &Value) -> bool {
    str_at(v, &["status"]) == "ok"
}

fn json_files(dir: &Path, prefix: &str, suffix: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| rd.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    files.retain(|p| {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        name.starts_with(prefix) && name.ends_with(suffix)
    });
    files
}

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).expect("readable");
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn daemon_round_trip_faults_health_and_clean_drain() {
    let dir = scratch_dir();
    let (log, crashes, traces) = (
        dir.join("serve.log"),
        dir.join("crashes"),
        dir.join("traces"),
    );
    let synthetic = dir.join("synthetic.json");
    let export = pas()
        .args(["export", "--app", "synthetic", "--out"])
        .arg(&synthetic)
        .output()
        .expect("run pas export");
    assert!(export.status.success(), "{export:?}");

    let mut child = pas()
        .args(["serve", "--listen", "127.0.0.1:0", "--workers", "4"])
        .args(["--queue", "32", "--debug-faults", "--log-level", "debug"])
        .arg("--log")
        .arg(&log)
        .arg("--crash-dir")
        .arg(&crashes)
        .arg("--trace-out")
        .arg(&traces)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pas serve");
    let addr = bound_addr(&mut child, &log);
    let ask = |req: &str| ask(&addr, req);

    // plan: first a cache miss, then a hit with the same digest.
    let plan = r#"{"id":"p","kind":"plan","workload":"synthetic","load":0.5,"scheme":"gss"}"#;
    let miss = ask(plan);
    assert!(is_ok(&miss) && get(&miss, &["body", "cached"]) == &Value::Bool(false));
    let hit = ask(plan);
    assert!(is_ok(&hit) && get(&hit, &["body", "cached"]) == &Value::Bool(true));
    assert_eq!(
        get(&hit, &["body", "digest"]),
        get(&miss, &["body", "digest"])
    );

    let check = ask(r#"{"id":"c","kind":"check","workload":"synthetic"}"#);
    assert!(is_ok(&check) && get(&check, &["body", "clean"]) == &Value::Bool(true));
    let run = ask(r#"{"id":"r","kind":"run","workload":"synthetic","seed":7}"#);
    assert!(is_ok(&run) && get(&run, &["body", "missed_deadline"]) == &Value::Bool(false));

    // One malformed and one panicking request: both come back
    // structured, and the daemon keeps serving afterwards.
    let bad = ask("{this is not json");
    assert_eq!(
        (str_at(&bad, &["status"]), str_at(&bad, &["code"])),
        ("error", "PAS0501")
    );
    let boom = ask(r#"{"id":"b","kind":"debug-panic"}"#);
    assert_eq!(
        (str_at(&boom, &["status"]), str_at(&boom, &["code"])),
        ("panic", "PAS0506")
    );
    assert!(is_ok(&ask(
        r#"{"id":"r2","kind":"run","workload":"synthetic"}"#
    )));

    // The injected panic produced one schema-valid crash report naming
    // the offending correlation id.
    let reports = json_files(&crashes, "crash-", ".json");
    assert_eq!(reports.len(), 1, "{reports:?}");
    let report = read_json(&reports[0]);
    assert_eq!(u64_at(&report, &["crash_schema"]), 1);
    assert_eq!(str_at(&report, &["trigger"]), "PAS0506");
    assert_eq!(str_at(&report, &["corr_id"]), "b");
    assert!(str_at(&report, &["request"]).contains("debug-panic"));
    let events = get(&report, &["events"]).as_array().expect("events");
    assert_eq!(
        events.last().map(|e| str_at(e, &["kind"])),
        Some("panic"),
        "{events:?}"
    );
    for key in ["t_wall_ms", "log_tail", "counters", "gauges"] {
        get(&report, &[key]);
    }
    assert_eq!(u64_at(&report, &["counters", "serve.panics"]), 1);

    // A traced request echoes its span timeline in the response.
    let traced = ask(r#"{"id":"t1","kind":"run","workload":"synthetic","trace":true}"#);
    assert!(is_ok(&traced));
    let spans: Vec<&str> = get(&traced, &["timeline"])
        .as_array()
        .expect("timeline")
        .iter()
        .map(|s| str_at(s, &["name"]))
        .collect();
    for name in ["req.ingest", "req.queue_wait", "req.exec", "req.respond"] {
        assert!(spans.contains(&name), "{name} not in {spans:?}");
    }

    let health = ask(r#"{"id":"h","kind":"status"}"#);
    let counter = |name: &str| u64_at(&health, &["body", "counters", name]);
    assert_eq!(counter("serve.panics"), 1);
    assert_eq!(u64_at(&health, &["body", "crashes", "count"]), 1);
    let last_path = str_at(&health, &["body", "crashes", "last_path"]);
    assert_eq!(Path::new(last_path), reports[0]);
    assert_eq!(counter("serve.crash_reports"), 1);
    assert!(u64_at(&health, &["body", "cache", "hits"]) >= 1);
    // serve.shed stays 0 in this gentle run but is reported.
    assert_eq!(counter("serve.shed"), 0);
    // Pre-seeded request-id counters and latency quantiles.
    assert!(counter("serve.request_ids.client") >= 5);
    let plan_total = get(&health, &["body", "latency", "serve.latency.plan.total"]);
    assert!(u64_at(plan_total, &["count"]) >= 2, "{plan_total:?}");
    assert!(get(plan_total, &["p50_ms"]).as_f64().expect("p50") >= 0.0);

    // Prometheus exposition: valid text format, one TYPE line per
    // family, pre-seeded series visible without traffic.
    let metrics = ask(r#"{"id":"x","kind":"metrics"}"#);
    assert!(is_ok(&metrics));
    let text = str_at(&metrics, &["body", "exposition"]);
    let types: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
    let unique: std::collections::BTreeSet<&str> = types.iter().copied().collect();
    assert_eq!(types.len(), unique.len(), "duplicate # TYPE family");
    for needle in [
        "# TYPE serve_requests counter",
        "# TYPE serve_latency summary",
        "# TYPE serve_build_info gauge",
        "plan_schema=\"1\"",
        "serve_latency_count{kind=\"plan\",stage=\"exec\",cache=\"hit\"} 1",
        "serve_stale_served 0",
    ] {
        assert!(text.contains(needle), "{needle} not in {text}");
    }
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let name = line.split(['{', ' ']).next().unwrap_or("");
        assert!(!name.contains('.'), "unmangled metric name: {line}");
    }

    // Requests without an id get one minted at ingest.
    let anon = ask(r#"{"kind":"status"}"#);
    assert!(str_at(&anon, &["id"]).starts_with("auto-"), "{anon:?}");

    // The exported built-in, sent inline, hits the built-in's plan.
    let graph = std::fs::read_to_string(&synthetic).expect("exported graph");
    let graph: Value = serde_json::from_str(&graph).expect("graph JSON");
    let inline = serde_json::to_string(&Value::Object(vec![
        ("id".into(), Value::Str("i".into())),
        ("kind".into(), Value::Str("plan".into())),
        ("graph".into(), graph),
        ("load".into(), Value::Float(0.5)),
        ("scheme".into(), Value::Str("gss".into())),
    ]))
    .expect("request prints");
    let inline = ask(&inline);
    assert!(is_ok(&inline) && get(&inline, &["body", "cached"]) == &Value::Bool(true));
    assert_eq!(
        get(&inline, &["body", "cache_key"]),
        get(&miss, &["body", "cache_key"])
    );

    // SIGTERM drains cleanly: exit 0 and a summary counting one response
    // per request.
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    let pid = i32::try_from(child.id()).expect("pid fits");
    // SAFETY: kill(2) takes two integers and touches no memory of ours;
    // the child is not reaped yet, so `pid` still names the daemon.
    assert_eq!(unsafe { kill(pid, SIGTERM) }, 0, "kill -TERM");
    let t0 = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll daemon") {
            break status;
        }
        assert!(t0.elapsed() < Duration::from_secs(30), "no drain");
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stdout = String::new();
    let mut stderr = String::new();
    let _ = child
        .stdout
        .take()
        .map(|mut s| s.read_to_string(&mut stdout));
    let _ = child
        .stderr
        .take()
        .map(|mut s| s.read_to_string(&mut stderr));
    assert!(status.success(), "{status}: {stderr}");
    assert_eq!(
        stdout.trim(),
        "pas serve: drained; requests=12 ok=10 errors=1 shed=0 timeouts=0 panics=1 abandoned=0",
        "{stderr}"
    );

    // The structured log is well-formed JSONL and recorded the contained
    // panic and the crash-report write.
    let text = std::fs::read_to_string(&log).expect("log file");
    let records: Vec<Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("torn log line {l}: {e}")))
        .collect();
    assert!(!records.is_empty(), "empty structured log");
    for r in &records {
        for key in ["seq", "t_wall_ms", "t_mono_ms", "level", "target", "msg"] {
            get(r, &[key]);
        }
    }
    let msgs: Vec<&str> = records.iter().map(|r| str_at(r, &["msg"])).collect();
    for msg in ["worker panic contained", "crash report written"] {
        assert!(msgs.contains(&msg), "{msg} not in {msgs:?}");
    }

    // One well-formed Chrome trace per pooled request.
    let trace_files = json_files(&traces, "", ".trace.json");
    assert!(!trace_files.is_empty(), "no per-request trace files");
    for path in &trace_files {
        let doc = read_json(path);
        let events = get(&doc, &["traceEvents"]).as_array().expect("array");
        assert!(!events.is_empty(), "{}", path.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

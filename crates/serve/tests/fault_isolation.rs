//! Fault-isolation suite: the daemon must answer *every* request with a
//! structured response and survive — panicking handlers, deadline blowers
//! and typed simulation failures included.

use pas_serve::{ServeConfig, Service};
use serde::Value;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn service(workers: usize, queue_cap: usize) -> Service {
    Service::start(ServeConfig {
        workers,
        queue_cap,
        default_timeout_ms: 30_000,
        debug_faults: true,
        ..ServeConfig::default()
    })
}

fn status_of(resp: &str) -> String {
    let v: Value = serde_json::from_str(resp).expect("response is valid JSON");
    v.get("status")
        .and_then(Value::as_str)
        .expect("response has a status")
        .to_string()
}

/// Panic messages from injected handler faults would spam the test
/// output; silence the hook for the duration of a closure.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

#[test]
fn panicking_handler_answers_structured_and_worker_survives() {
    let svc = service(2, 8);
    let resp = with_quiet_panics(|| svc.handle_line(r#"{"id":"p1","kind":"debug-panic"}"#));
    assert_eq!(status_of(&resp), "panic");
    assert!(resp.contains("PAS0506"), "{resp}");

    // The same pool keeps serving real work afterwards.
    let next = svc.handle_line(r#"{"id":"p2","kind":"run","workload":"synthetic"}"#);
    assert_eq!(status_of(&next), "ok");
    assert_eq!(svc.counter("serve.panics"), 1);
    assert_eq!(svc.counter("serve.worker_recoveries"), 1);
    assert_eq!(svc.shutdown(), 0);
}

#[test]
fn deadline_exceeding_handler_answers_timeout_and_worker_survives() {
    let svc = service(2, 8);
    let resp =
        svc.handle_line(r#"{"id":"t1","kind":"debug-sleep","sleep_ms":60000,"timeout_ms":40}"#);
    assert_eq!(status_of(&resp), "timeout");
    assert!(resp.contains("PAS0505"), "{resp}");

    let next = svc.handle_line(r#"{"id":"t2","kind":"run","workload":"synthetic"}"#);
    assert_eq!(status_of(&next), "ok");
    assert_eq!(svc.counter("serve.timeouts"), 1);
    // Cooperative cancellation released the worker, so the drain is clean.
    assert_eq!(svc.shutdown(), 0);
}

#[test]
fn sim_error_handler_answers_error_and_worker_survives() {
    let svc = service(2, 8);
    let resp = svc.handle_line(r#"{"id":"f1","kind":"debug-fail"}"#);
    assert_eq!(status_of(&resp), "error");
    assert!(resp.contains("PAS0508"), "{resp}");

    let next = svc.handle_line(r#"{"id":"f2","kind":"check","workload":"synthetic"}"#);
    assert_eq!(status_of(&next), "ok");
    assert_eq!(svc.shutdown(), 0);
}

/// The acceptance scenario: a 4-worker pool under 100 concurrent mixed
/// requests — at least 10 panicking and 10 deadline-exceeding — must
/// produce 100 structured responses, zero daemon crashes, and a plan
/// cache hit rate above zero.
#[test]
fn mixed_storm_of_100_requests_all_get_structured_responses() {
    let svc = Arc::new(service(4, 128));
    let counted = Arc::new(AtomicUsize::new(0));

    let lines: Vec<String> = (0..100)
        .map(|i| match i % 10 {
            // 10 panicking handlers.
            0 => format!(r#"{{"id":"r{i}","kind":"debug-panic"}}"#),
            // 10 deadline blowers (sleep far past their 30ms budget).
            1 => {
                format!(r#"{{"id":"r{i}","kind":"debug-sleep","sleep_ms":60000,"timeout_ms":30}}"#)
            }
            // 10 typed failures.
            2 => format!(r#"{{"id":"r{i}","kind":"debug-fail"}}"#),
            // 10 malformed lines.
            3 => format!("{{r{i} not json"),
            // 20 identical plans: the repeats must hit the cache.
            4 | 5 => r#"{"id":"plan","kind":"plan","workload":"synthetic","load":0.5}"#.to_string(),
            // 10 checks.
            6 => format!(r#"{{"id":"r{i}","kind":"check","workload":"synthetic"}}"#),
            // 10 status probes.
            7 => format!(r#"{{"id":"r{i}","kind":"status"}}"#),
            // 20 seeded runs.
            _ => format!(
                r#"{{"id":"r{i}","kind":"run","workload":"synthetic","scheme":"gss","seed":{i}}}"#
            ),
        })
        .collect();

    let responses = with_quiet_panics(|| {
        let handles: Vec<_> = lines
            .into_iter()
            .map(|line| {
                let svc = Arc::clone(&svc);
                let counted = Arc::clone(&counted);
                std::thread::spawn(move || {
                    let resp = svc.handle_line(&line);
                    counted.fetch_add(1, Ordering::SeqCst);
                    resp
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread survives"))
            .collect::<Vec<_>>()
    });

    // Every one of the 100 requests got exactly one structured response.
    assert_eq!(counted.load(Ordering::SeqCst), 100);
    assert_eq!(responses.len(), 100);
    let mut by_status = std::collections::BTreeMap::new();
    for resp in &responses {
        *by_status.entry(status_of(resp)).or_insert(0u32) += 1;
    }
    let n = |s: &str| by_status.get(s).copied().unwrap_or(0);
    assert!(n("panic") >= 10, "statuses: {by_status:?}");
    assert!(n("timeout") >= 10, "statuses: {by_status:?}");
    assert!(n("error") >= 20, "statuses: {by_status:?}"); // typed + malformed
    assert!(n("ok") >= 40, "statuses: {by_status:?}");

    // The daemon is alive and the pool still answers after the storm.
    let after = svc.handle_line(r#"{"id":"after","kind":"run","workload":"synthetic"}"#);
    assert_eq!(status_of(&after), "ok");

    // Metrics saw every fault class, and the identical plans hit the cache.
    assert!(svc.counter("serve.panics") >= 10);
    assert!(svc.counter("serve.timeouts") >= 10);
    let hits = svc.counter("serve.cache.hits");
    let misses = svc.counter("serve.cache.misses");
    assert!(
        hits > 0,
        "cache hit rate must be > 0 (hits={hits} misses={misses})"
    );

    // The timed-out sleepers were cancelled cooperatively, so the drain
    // completes without abandoning workers.
    assert_eq!(svc.shutdown(), 0);
}

#[test]
fn back_pressure_sheds_with_retry_after_instead_of_queueing_unboundedly() {
    // 1 worker, tiny queue: park the worker, fill the queue, then watch
    // overflow shed with PAS0504 + retry_after_ms.
    let svc = Arc::new(service(1, 2));
    let parked: Vec<_> = (0..3)
        .map(|i| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                svc.handle_line(&format!(
                    r#"{{"id":"park{i}","kind":"debug-sleep","sleep_ms":60000,"timeout_ms":2000}}"#
                ))
            })
        })
        .collect();
    // Wait until the worker is busy and the queue is saturated.
    let t0 = std::time::Instant::now();
    while svc.counter("serve.shed") == 0 && t0.elapsed() < std::time::Duration::from_secs(10) {
        let resp = svc.handle_line(r#"{"id":"probe","kind":"debug-fail"}"#);
        if status_of(&resp) == "shed" {
            assert!(resp.contains("PAS0504"), "{resp}");
            assert!(resp.contains("retry_after_ms"), "{resp}");
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(svc.counter("serve.shed") > 0, "an overflow request shed");
    for h in parked {
        let resp = h.join().expect("parked client");
        assert!(
            matches!(status_of(&resp).as_str(), "timeout" | "shed"),
            "{resp}"
        );
    }
    assert_eq!(svc.shutdown(), 0);
}

/// The sum of every `serve.responses.*` counter.
fn responses(svc: &Service) -> u64 {
    ["ok", "error", "shed", "timeout", "panic"]
        .iter()
        .map(|s| svc.counter(&format!("serve.responses.{s}")))
        .sum()
}

/// A timed-out request is one `timeout` response: the worker's later
/// `PAS0505` return reaches nobody and counts nothing.
#[test]
fn timeout_counts_one_response() {
    let svc = service(1, 8);
    let resp =
        svc.handle_line(r#"{"id":"t","kind":"debug-sleep","sleep_ms":60000,"timeout_ms":40}"#);
    assert_eq!(status_of(&resp), "timeout");
    // With one worker, the next job runs only after the sleeper returned.
    let next = svc.handle_line(r#"{"id":"n","kind":"debug-fail"}"#);
    assert_eq!(status_of(&next), "error");
    assert_eq!(svc.counter("serve.responses.timeout"), 1);
    assert_eq!(svc.counter("serve.responses.error"), 1);
    assert_eq!(responses(&svc), svc.counter("serve.requests"));
    assert_eq!(svc.shutdown(), 0);
    // Nothing counts after the drain either.
    assert_eq!(svc.counter("serve.responses.error"), 1);
    assert_eq!(responses(&svc), 2);
}

/// Every outcome at once: each request line counts exactly one response.
#[test]
fn a_burst_of_every_outcome_sums_to_the_requests() {
    let svc = Arc::new(service(1, 1));
    let park = |id: &str, timeout_ms: u64| {
        let svc = Arc::clone(&svc);
        let line = format!(
            r#"{{"id":"{id}","kind":"debug-sleep","sleep_ms":60000,"timeout_ms":{timeout_ms}}}"#
        );
        std::thread::spawn(move || svc.handle_line(&line))
    };
    // One sleeper holds the worker, a second fills the queue.
    let running = park("running", 1500);
    let queue_state = |svc: &Service| {
        let v: Value =
            serde_json::from_str(&svc.handle_line(r#"{"kind":"status"}"#)).expect("JSON");
        let q = v.get("body").and_then(|b| b.get("queue")).expect("queue");
        let n = |k: &str| q.get(k).and_then(Value::as_u64).unwrap_or(0);
        (n("busy_workers"), n("depth"))
    };
    let wait_for = |want: (u64, u64)| {
        let t0 = std::time::Instant::now();
        while queue_state(&svc) != want {
            assert!(t0.elapsed().as_secs() < 10, "queue never reached {want:?}");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    };
    wait_for((1, 0));
    let queued = park("queued", 1000);
    wait_for((1, 1));
    let shed = svc.handle_line(r#"{"id":"shed","kind":"run","workload":"synthetic"}"#);
    assert_eq!(status_of(&shed), "shed");
    assert_eq!(status_of(&running.join().expect("client")), "timeout");
    assert_eq!(status_of(&queued.join().expect("client")), "timeout");
    // The cancelled sleeper returns and the cancelled queued job is skipped.
    wait_for((0, 0));
    let rest = with_quiet_panics(|| {
        [
            r#"{"id":"ok","kind":"run","workload":"synthetic"}"#,
            r#"{"id":"fail","kind":"debug-fail"}"#,
            r#"{"id":"boom","kind":"debug-panic"}"#,
            "{not json",
        ]
        .map(|line| status_of(&svc.handle_line(line)))
    });
    assert_eq!(rest, ["ok", "error", "panic", "error"]);
    for (status, n) in [
        ("ok", 1),
        ("error", 2),
        ("shed", 1),
        ("timeout", 2),
        ("panic", 1),
    ] {
        let counted = svc.counter(&format!("serve.responses.{status}"));
        // `ok` also counts the status probes.
        assert!(counted >= n, "{status}: {counted}");
        if status != "ok" {
            assert_eq!(counted, n, "{status}");
        }
    }
    assert_eq!(responses(&svc), svc.counter("serve.requests"));
    assert_eq!(svc.shutdown(), 0);
}
